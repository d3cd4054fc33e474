open Lbsa_spec
open Lbsa_runtime

(* Exhaustive task verification: does a protocol solve a task for *every*
   schedule and *every* resolution of object nondeterminism?

   The reachable configuration graph (Graph.build) contains every
   interleaving, so checking a safety property at every node quantifies
   over all finite executions, and liveness properties reduce to
   structural properties of the finite graph:

   - wait-free termination of process pid fails iff some reachable cycle
     contains a step of pid (pid can take infinitely many steps without
     halting);
   - solo termination of pid from configuration C fails iff the pid-solo
     subgraph from C contains a cycle, or a leaf where pid halted in a
     status the property does not accept.  On a graph that holds the
     substrate's steps verbatim this is one least-fixpoint pass per pid
     over the pid-labelled steps ([solo_good]); reduced graphs re-step
     the substrate off the graph instead ([solo_halts]). *)

type verdict = {
  ok : bool;
  outcome : Supervisor.outcome;
      (* Done = definitive verdict; anything else = partial (the
         explored prefix held, but exploration was cut short) *)
  inputs : Value.t array;
  states : int;
  failure : string option;
  stats : Graph.stats option;  (* exploration stats of the checked graph *)
  suspended : Graph.suspended option;
      (* frozen exploration for checkpoint/resume, on partial outcomes *)
}

let pp_verdict ppf v =
  if v.ok then
    Fmt.pf ppf "OK (inputs=%a, %d states)"
      Fmt.(array ~sep:(any ",") Value.pp)
      v.inputs v.states
  else if Supervisor.is_partial v.outcome then
    Fmt.pf ppf "PARTIAL [%a] (inputs=%a, %d states): %s" Supervisor.pp_outcome
      v.outcome
      Fmt.(array ~sep:(any ",") Value.pp)
      v.inputs v.states
      (Option.value v.failure ~default:"?")
  else
    Fmt.pf ppf "FAIL (inputs=%a, %d states): %s"
      Fmt.(array ~sep:(any ",") Value.pp)
      v.inputs v.states
      (Option.value v.failure ~default:"?")

let fail ?(outcome = Supervisor.Done) ?stats ?suspended ~inputs ~states msg =
  { ok = false; outcome; inputs; states; failure = Some msg; stats; suspended }

let pass ?stats ~inputs ~states () =
  {
    ok = true;
    outcome = Supervisor.Done;
    inputs;
    states;
    failure = None;
    stats;
    suspended = None;
  }

(* A graph cut short (quota, deadline, cancellation, worker failure)
   still proves safety on every explored configuration, so partial
   verdicts are produced AFTER the safety scan: a violation in the
   prefix is a definitive FAIL; absence of one is merely partial. *)
let partial ~(graph : Graph.t) ~stats ~inputs ~states () =
  fail ~outcome:graph.Graph.stop ?suspended:graph.Graph.suspended ~stats ~inputs
    ~states
    (Fmt.str "exploration stopped (%a); safety holds on the %d explored states"
       Supervisor.pp_outcome graph.Graph.stop states)

(* --- liveness primitives -------------------------------------------- *)

(* Does some reachable cycle contain a step of [pid]?  Using the SCC
   condensation: yes iff some SCC contains an edge of [pid] internal to
   it (including self-loops).  Both searches are pure topology, so they
   read the packed targets array ([Graph.exists_out_step]) and never
   fault segments on an out-of-core graph.  [comp] is [Graph.scc]'s
   component array, computed once per graph by the caller. *)
let cycle_with_step_of (graph : Graph.t) ~comp pid =
  Graph.find_id graph (fun u ->
      Graph.exists_out_step graph u (fun pid' target ->
          pid' = pid && comp.(u) = comp.(target)))

(* Any cycle at all (some process can run forever). *)
let any_cycle (graph : Graph.t) =
  let comp, n_comps = Graph.scc graph in
  let sizes = Array.make n_comps 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  Graph.find_id graph (fun u ->
      sizes.(comp.(u)) > 1
      || Graph.exists_out_step graph u (fun _pid target -> target = u))

(* --- solo termination ------------------------------------------------ *)

(* What a halted solo runner must have ended in: termination (a) lets p
   decide or abort, termination (b) requires q to decide. *)
type solo_goal = Decide | Halt

(* A process's status, as the on-graph pass stores it: one byte per
   (node, pid). *)
let running_class = '\000'
let decided_class = '\001'
let aborted_class = '\002'
let crashed_class = '\003'

let class_of : Config.status -> char = function
  | Running -> running_class
  | Decided _ -> decided_class
  | Aborted -> aborted_class
  | Crashed -> crashed_class

let class_accepted goal c =
  c = decided_class || (goal = Halt && c = aborted_class)

let solo_accepts goal status = class_accepted goal (class_of status)

module CH = Hashtbl.Make (Config)

(* Solo termination of [pid] from [config] off the graph: explore the
   pid-solo subgraph (all nondeterministic branches) by re-stepping the
   substrate, requiring that every run halts pid in a status satisfying
   [accept].  Memoized across calls via [cache]: true = all solo runs
   from this config are fine.  The reduced graphs of [check_dac] use it
   (their steps are canonized or pruned, so they do not hold the solo
   runs verbatim), and it is the oracle of the on-graph pass below. *)
type solo_cache = bool CH.t

let solo_cache () : solo_cache = CH.create 1024

let solo_halts ?(cache = solo_cache ()) ?(substrate = Substrate.shm) ~machine
    ~specs ~pid ~accept config =
  let module CM = Map.Make (Config) in
  (* On-stack set for cycle detection within one DFS. *)
  let rec go on_stack config =
    match CH.find_opt cache config with
    | Some r -> r
    | None ->
      if CM.mem config on_stack then false (* solo cycle: pid spins *)
      else
        let r =
          if not (Config.is_running config pid) then accept config.Config.status.(pid)
          else
            let branches =
              substrate.Substrate.step_branches ~machine ~specs config pid
            in
            List.for_all
              (fun (config', _) -> go (CM.add config () on_stack) config')
              branches
        in
        (* A [true] never depends on the stack (an on-stack hit answers
           [false], which [for_all] propagates), so positives are cached
           always; a [false] may be caused by an on-stack ancestor and
           is not cached. *)
        if r then CH.replace cache config r;
        r
  in
  go CM.empty config

(* Solo termination on the graph.  The graph has no crash edges and,
   unreduced, lists every [step_branches] successor of every running
   pid, so a node's pid-solo successors are exactly its out-steps
   labelled pid, and the pid-restricted subgraph is closed.  A node is
   good for (pid, goal) iff pid is halted in a status the goal accepts,
   or pid is running and every pid-step leads to a good node (vacuously
   so with no branches): the least fixpoint, which never admits a node
   on or leading to a pid-only cycle — exactly [solo_halts]'s answer.

   The index is built once per graph: the reverse of the packed steps
   (CSR over targets), and every node's per-pid status class, read from
   its configuration once (one segment fault per cold segment on an
   out-of-core graph).  Each (pid, goal) pass is then a counter
   propagation in O(V + E). *)
type solo_index = {
  graph : Graph.t;
  procs : int;
  classes : Bytes.t;  (* [id * procs + pid]: status class *)
  rev_offsets : int array;  (* length V + 1, slices of [rev_steps] *)
  rev_steps : int array;  (* packed [(source lsl 8) lor pid], by target *)
}

let solo_index graph =
  let v = Graph.n_nodes graph in
  let procs = Config.n_processes (Graph.node graph graph.Graph.initial) in
  let classes = Bytes.create (v * procs) in
  Graph.iter_nodes
    (fun id config ->
      Array.iteri
        (fun pid s -> Bytes.set classes ((id * procs) + pid) (class_of s))
        config.Config.status)
    graph;
  let rev_offsets = Array.make (v + 1) 0 in
  for u = 0 to v - 1 do
    Graph.iter_out_steps graph u (fun _pid w ->
        rev_offsets.(w + 1) <- rev_offsets.(w + 1) + 1)
  done;
  for w = 1 to v do
    rev_offsets.(w) <- rev_offsets.(w) + rev_offsets.(w - 1)
  done;
  let rev_steps = Array.make (Graph.n_edges graph) 0 in
  let fill = Array.sub rev_offsets 0 v in
  for u = 0 to v - 1 do
    Graph.iter_out_steps graph u (fun pid w ->
        rev_steps.(fill.(w)) <- (u lsl 8) lor pid;
        fill.(w) <- fill.(w) + 1)
  done;
  { graph; procs; classes; rev_offsets; rev_steps }

let solo_class idx id pid = Bytes.get idx.classes ((id * idx.procs) + pid)

let solo_good idx ~goal pid =
  let graph = idx.graph in
  let v = Graph.n_nodes graph in
  let good = Bytes.make v '\000' in
  (* Unresolved pid-steps per running node; a node is pushed (and marked
     good) exactly once, when its count reaches zero or as a leaf. *)
  let pending = Array.make v 0 in
  let stack = Array.make v 0 in
  let sp = ref 0 in
  let mark u =
    Bytes.set good u '\001';
    stack.(!sp) <- u;
    incr sp
  in
  for u = 0 to v - 1 do
    let c = solo_class idx u pid in
    if c = running_class then begin
      Graph.iter_out_steps graph u (fun pid' _ ->
          if pid' = pid then pending.(u) <- pending.(u) + 1);
      if pending.(u) = 0 then mark u
    end
    else if class_accepted goal c then mark u
  done;
  while !sp > 0 do
    decr sp;
    let w = stack.(!sp) in
    for i = idx.rev_offsets.(w) to idx.rev_offsets.(w + 1) - 1 do
      let s = idx.rev_steps.(i) in
      if s land 0xff = pid then begin
        let u = s lsr 8 in
        pending.(u) <- pending.(u) - 1;
        if pending.(u) = 0 then mark u
      end
    done
  done;
  fun id -> Bytes.get good id = '\001'

(* --- task checkers --------------------------------------------------- *)

(* Exhaustive consensus check: safety at every node, wait-freedom of
   every process.  Liveness needs the complete graph; on a partial one
   only the safety scan runs and the verdict is partial. *)
let check_consensus ?(max_states = Graph.default_max_states) ?domains ?budget
    ?substrate ?reduce ?resume ?spill ~machine ~specs ~inputs () =
  let graph =
    Graph.build ~max_states ?domains ?budget ?substrate ?reduce ?resume ?spill
      ~machine ~specs ~inputs ()
  in
  let states = Graph.n_nodes graph in
  let stats = Graph.stats graph in
  let violation =
    Graph.find_map_node graph (fun _ config ->
        match Lbsa_protocols.Consensus_task.check_safety ~inputs config with
        | Ok () -> None
        | Error v ->
          Some (Fmt.str "%a" Lbsa_protocols.Consensus_task.pp_violation v))
  in
  match violation with
  | Some msg -> fail ~stats ~inputs ~states msg
  | None ->
    if graph.truncated then partial ~graph ~stats ~inputs ~states ()
    else
      let n = Array.length inputs in
      let comp, _ = Graph.scc graph in
      let rec check_pid pid =
        if pid >= n then pass ~stats ~inputs ~states ()
        else
          match cycle_with_step_of graph ~comp pid with
          | Some node ->
            fail ~stats ~inputs ~states
              (Fmt.str "process %d can take infinitely many steps (cycle at node %d)"
                 pid node)
          | None -> check_pid (pid + 1)
      in
      check_pid 0

(* Exhaustive k-set agreement check. *)
let check_kset ?(max_states = Graph.default_max_states) ?domains ?budget
    ?substrate ?reduce ?resume ?spill ~machine ~specs ~k ~inputs () =
  let graph =
    Graph.build ~max_states ?domains ?budget ?substrate ?reduce ?resume ?spill
      ~machine ~specs ~inputs ()
  in
  let states = Graph.n_nodes graph in
  let stats = Graph.stats graph in
  let violation =
    Graph.find_map_node graph (fun _ config ->
        match Lbsa_protocols.Kset_task.check_safety ~k ~inputs config with
        | Ok () -> None
        | Error v -> Some (Fmt.str "%a" Lbsa_protocols.Kset_task.pp_violation v))
  in
  match violation with
  | Some msg -> fail ~stats ~inputs ~states msg
  | None ->
    if graph.truncated then partial ~graph ~stats ~inputs ~states ()
    else (
      match any_cycle graph with
      | Some node ->
        fail ~stats ~inputs ~states (Fmt.str "livelock (cycle at node %d)" node)
      | None -> pass ~stats ~inputs ~states ())

(* Exhaustive n-DAC check (Section 4's four properties, with the paper's
   weak termination):
   - safety (agreement, validity, p-only aborts) at every node;
   - Nontriviality: no abort along p-solo runs from the initial
     configuration (those are exactly the runs where no q stepped);
   - Termination (a): from every reachable node, p running solo halts
     (decides or aborts);
   - Termination (b): from every reachable node, every q != p running
     solo decides.
   The solo properties run on the graph ([solo_index]) whenever its
   steps are the substrate's verbatim: no reduction, or an identity
   group without commit pruning.  A symmetry quotient renames pids
   along its steps and the ample rule prunes them, so there the solo
   runs are re-stepped off the graph ([solo_halts]). *)
let check_dac ?(max_states = Graph.default_max_states) ?domains ?budget
    ?(substrate = Substrate.shm) ?reduce ?resume ?spill ~machine ~specs ~inputs
    () =
  let p = Lbsa_protocols.Dac.distinguished in
  let graph =
    Graph.build ~max_states ?domains ?budget ~substrate ?reduce ?resume ?spill
      ~machine ~specs ~inputs ()
  in
  let states = Graph.n_nodes graph in
  let stats = Graph.stats graph in
  let ( <|> ) a b = match a with None -> b () | Some _ -> a in
  (* Safety at every node, stopping at the first violation. *)
  let safety () =
    Graph.find_map_node graph (fun id config ->
        let of_result = function
          | Ok () -> None
          | Error v ->
            Some (Fmt.str "node %d: %a" id Lbsa_protocols.Dac.pp_violation v)
        in
        of_result (Lbsa_protocols.Dac.check_agreement config)
        <|> (fun () ->
              of_result (Lbsa_protocols.Dac.check_validity ~inputs config))
        <|> fun () -> of_result (Lbsa_protocols.Dac.check_aborts config))
  in
  let nontrivial_msg = "nontriviality: p aborted in a p-solo run" in
  let term_a id = Fmt.str "node %d: termination (a) fails for p" id in
  let term_b id q = Fmt.str "node %d: termination (b) fails for q%d" id q in
  (* On the graph: nontriviality is reachability over p-steps from the
     initial node; termination reads one good-bitmap per pid, first
     failing node and pid in the walk's order (p, then running q's
     ascending). *)
  let on_graph () =
    let idx = solo_index graph in
    let n = idx.procs in
    let nontriviality () =
      let seen = Bytes.make states '\000' in
      let rec reach = function
        | [] -> None
        | u :: rest ->
          if solo_class idx u p = aborted_class then Some nontrivial_msg
          else begin
            let rest = ref rest in
            Graph.iter_out_steps graph u (fun pid w ->
                if pid = p && Bytes.get seen w = '\000' then begin
                  Bytes.set seen w '\001';
                  rest := w :: !rest
                end);
            reach !rest
          end
      in
      Bytes.set seen graph.initial '\001';
      reach [ graph.initial ]
    in
    let termination () =
      let good =
        Array.init n (fun pid ->
            solo_good idx ~goal:(if pid = p then Halt else Decide) pid)
      in
      let running u pid = solo_class idx u pid = running_class in
      let fails u =
        if running u p && not (good.(p) u) then Some (term_a u)
        else
          let rec q_from q =
            if q >= n then None
            else if q <> p && running u q && not (good.(q) u) then
              Some (term_b u q)
            else q_from (q + 1)
          in
          q_from 0
      in
      let rec scan u =
        if u >= states then None
        else match fails u with Some _ as r -> r | None -> scan (u + 1)
      in
      scan 0
    in
    nontriviality () <|> termination
  in
  (* Off the graph, for reduced graphs. *)
  let walk () =
    let nontriviality () =
      let exception Abort_found in
      let seen = CH.create 64 in
      let rec p_solo config =
        if not (CH.mem seen config) then begin
          CH.replace seen config ();
          if config.Config.status.(p) = Config.Aborted then raise Abort_found
          else if Config.is_running config p then
            List.iter
              (fun (c', _) -> p_solo c')
              (substrate.Substrate.step_branches ~machine ~specs config p)
        end
      in
      match p_solo (Graph.node graph graph.initial) with
      | () -> None
      | exception Abort_found -> Some nontrivial_msg
    in
    let termination () =
      let caches = Hashtbl.create 8 in
      let halts pid config =
        let cache =
          match Hashtbl.find_opt caches pid with
          | Some c -> c
          | None ->
            let c = solo_cache () in
            Hashtbl.replace caches pid c;
            c
        in
        let goal = if pid = p then Halt else Decide in
        solo_halts ~cache ~substrate ~machine ~specs ~pid
          ~accept:(solo_accepts goal) config
      in
      Graph.find_map_node graph (fun id config ->
          (if Config.is_running config p && not (halts p config) then
             Some (term_a id)
           else None)
          <|> fun () ->
          List.find_map
            (fun q ->
              if q <> p && not (halts q config) then Some (term_b id q)
              else None)
            (Config.running config))
    in
    nontriviality () <|> termination
  in
  let verbatim =
    match reduce with
    | None -> true
    | Some r -> (not r.Graph.sleep) && Canon.is_identity r.Graph.canon
  in
  match safety () with
  | Some msg -> fail ~stats ~inputs ~states msg
  | None ->
    (* Nontriviality and termination quantify over whole solo runs;
       they are only meaningful on a complete reachable set. *)
    if graph.truncated then partial ~graph ~stats ~inputs ~states ()
    else (
      match if verbatim then on_graph () else walk () with
      | Some msg -> fail ~stats ~inputs ~states msg
      | None -> pass ~stats ~inputs ~states ())

(* --- counterexample witnesses ----------------------------------------- *)

(* A violating configuration together with the schedule reproducing it:
   the pids to run, in order, from the initial configuration.  With
   nondeterministic objects the witness also needs the branch picked at
   each step; [replay] therefore re-walks the stored edges. *)
type witness = {
  schedule : int list;
  violation : string;
  config : Config.t;
}

let pp_witness ppf w =
  Fmt.pf ppf "@[<v>violation: %s@,schedule: %a@,configuration:@,%a@]"
    w.violation
    Fmt.(list ~sep:(any " ") int)
    w.schedule Config.pp w.config

(* The outcome of a witness search.  A found witness is definitive even
   on a truncated graph (the violating prefix was explored in full); the
   *absence* of one is only meaningful when the whole reachable set was
   scanned, so a cut-short exploration without a hit must not masquerade
   as "no witness" — that was a false negative until this variant forced
   callers to distinguish the cases. *)
type witness_search =
  | Witness of witness
  | No_witness  (* exhaustive: the complete graph holds no violation *)
  | Search_truncated of Supervisor.outcome
      (* no violation in the explored prefix, but exploration stopped
         early — the verdict is inconclusive *)

(* Find the first configuration violating [judge] and extract its
   schedule.  [judge] returns a violation description, or None.
   Witness searches always run unreduced: the schedule must replay
   concretely from the initial configuration, which a symmetry-quotient
   graph (whose edges connect orbit representatives) does not
   guarantee. *)
let find_safety_witness ?(max_states = Graph.default_max_states) ~machine ~specs
    ~inputs ~(judge : Config.t -> string option) () =
  let graph = Graph.build ~max_states ~machine ~specs ~inputs () in
  let found =
    Graph.find_map_node graph (fun id config ->
        Option.map (fun violation -> (id, config, violation)) (judge config))
  in
  match found with
  | None ->
    if graph.truncated then Search_truncated graph.stop else No_witness
  | Some (id, config, violation) ->
    let path = Option.get (Graph.shortest_path graph ~target:id) in
    Witness { schedule = Graph.schedule_of_path path; violation; config }

let consensus_witness ?max_states ~machine ~specs ~inputs () =
  let judge config =
    match Lbsa_protocols.Consensus_task.check_safety ~inputs config with
    | Ok () -> None
    | Error v -> Some (Fmt.str "%a" Lbsa_protocols.Consensus_task.pp_violation v)
  in
  find_safety_witness ?max_states ~machine ~specs ~inputs ~judge ()

let dac_witness ?max_states ~machine ~specs ~inputs () =
  let judge config =
    let ( <|> ) a b = if a = None then b else a in
    let of_result = function
      | Ok () -> None
      | Error v -> Some (Fmt.str "%a" Lbsa_protocols.Dac.pp_violation v)
    in
    of_result (Lbsa_protocols.Dac.check_agreement config)
    <|> of_result (Lbsa_protocols.Dac.check_validity ~inputs config)
    <|> of_result (Lbsa_protocols.Dac.check_aborts config)
  in
  find_safety_witness ?max_states ~machine ~specs ~inputs ~judge ()

(* Check a task over a whole family of input vectors; returns the first
   failing verdict or the last passing one.  The vectors are one
   {!Supervisor.scan} (one vector per block): each vector builds an
   independent graph, and the winning (lowest) failing index is the same
   for any domain count.  When fanning out, the per-vector check should
   itself run with [~domains:1] to avoid oversubscription. *)

type family_stats = {
  vectors : int;
  fan_domains : int;
  total_states : int;
  wall_s : float;
  vectors_per_sec : float;
}

let pp_family_stats ppf s =
  Fmt.pf ppf
    "family: %d vectors, %d states total, %.3f s (%.0f vectors/s, %d domain%s)"
    s.vectors s.total_states s.wall_s s.vectors_per_sec s.fan_domains
    (if s.fan_domains = 1 then "" else "s")

let for_all_inputs_timed ?(domains = 1)
    ?(budget = Supervisor.Budget.unlimited) check inputs_list =
  if inputs_list = [] then invalid_arg "Solvability.for_all_inputs: no inputs";
  if domains < 1 then
    invalid_arg "Solvability.for_all_inputs: domains must be >= 1";
  let vectors = Array.of_list inputs_list in
  let n = Array.length vectors in
  let t0 = Unix.gettimeofday () in
  let states = Atomic.make 0 in
  (* Written only by the owner of the last vector, published by join. *)
  let last = ref None in
  let r =
    Supervisor.scan ~domains ~budget ~start:0 ~stop:n (fun i ->
        let v = check vectors.(i) in
        ignore (Atomic.fetch_and_add states v.states);
        if not v.ok then Some v
        else begin
          if i = n - 1 then last := Some v;
          None
        end)
  in
  let verdict =
    match (r.Supervisor.first, r.Supervisor.stopped) with
    | Some (_, Ok v), _ -> v
    | Some (i, Error (exn, attempts)), _ ->
      (* The checker kept raising on vector [i]: a failing verdict for
         that vector, never an exception through [Domain.join]. *)
      fail
        ~outcome:(Supervisor.Worker_failed { worker = i; exn; attempts })
        ~inputs:vectors.(i) ~states:0
        (Fmt.str "checker raised after %d attempt%s: %s" attempts
           (if attempts = 1 then "" else "s")
           exn)
    | None, Some o ->
      fail ~outcome:o ~inputs:vectors.(r.Supervisor.completed) ~states:0
        (Fmt.str "input-family sweep stopped (%a) before all %d vectors"
           Supervisor.pp_outcome o n)
    | None, None -> Option.get !last
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  ( verdict,
    {
      vectors = n;
      fan_domains = r.Supervisor.domains;
      total_states = Atomic.get states;
      wall_s;
      vectors_per_sec = (if wall_s > 0. then float_of_int n /. wall_s else 0.);
    } )

let for_all_inputs ?domains ?budget check inputs_list =
  fst (for_all_inputs_timed ?domains ?budget check inputs_list)
