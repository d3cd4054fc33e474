open Lbsa_util
open Lbsa_spec
open Lbsa_runtime
open Lbsa_protocols
open Lbsa_modelcheck

(* The service API: one pure-data query language shared by every
   front-end (the unix-socket daemon today, HTTP/batch backends later),
   a canonical cross-process-stable cache key per query, and the cold
   compute path that answers a query by running the verification
   pipeline.

   Everything in a query and a result is plain data — ints, strings,
   bools — never a [Value.t] or a [Config.t]: intern ids and pointer
   identity must not cross a process boundary (the checkpoint layer
   learned this first), and plain data keeps the wire protocol and the
   store trivially marshalable. *)

type reduce_mode = [ `None | `Sym | `Sym_sleep ]

type task =
  | Dac of { n : int }
  | Consensus of { m : int }
  | Kset of { m : int; k : int }
  | Candidate of { name : string }
  | Vc of { n : int }
  | Bcast of { n : int }

type question = Solve | Valence | Live

type query =
  | Verify of {
      task : task;
      question : question;
      inputs : int list;
      max_states : int;
      reduce : reduce_mode;
      substrate : string;
    }
  | Fuzz of { target : string; trials : int; procs : int; ops : int; seed : int }

(* --- results ------------------------------------------------------------ *)

type verify_payload = {
  v_ok : bool;
  v_outcome : string;
  v_partial : bool;
  v_inputs : int list;
  v_states : int;
  v_failure : string option;
}

type valence_payload = {
  l_nodes : int;
  l_edges : int;
  l_truncated : bool;  (** the [max_states] quota fired (key-determined) *)
  l_partial : bool;  (** a budget cut the build (not key-determined) *)
  l_bivalent : int;
  l_univalent : int;
  l_undecided : int;
  l_initial : string;
}

type fuzz_payload = {
  f_target : string;
  f_trials : int;
  f_completed : int;
  f_partial : bool;
  f_failure : string option;
  f_resumed_from : int;
}

type live_payload = {
  lv_live : bool;
  lv_nodes : int;
  lv_sccs : int;
  lv_fair : int;
  lv_truncated : bool;  (** the [max_states] quota fired (key-determined) *)
  lv_partial : bool;  (** a budget cut the build (not key-determined) *)
  lv_prefix : int;  (** shrunk lasso prefix length; 0 when live *)
  lv_cycle : int;  (** shrunk lasso cycle length; 0 when live *)
  lv_witness : string option;  (** the shrunk lasso rendered as traces *)
}

type result =
  | Verdict of verify_payload
  | Valences of valence_payload
  | Fuzz_report of fuzz_payload
  | Liveness_report of live_payload

(* --- canonical fingerprint --------------------------------------------- *)

let reduce_name = function
  | `None -> "none"
  | `Sym -> "sym"
  | `Sym_sleep -> "sym+sleep"

let task_label = function
  | Dac { n } -> Fmt.str "dac:%d" n
  | Consensus { m } -> Fmt.str "cons:%d" m
  | Kset { m; k } -> Fmt.str "kset:%d:%d" m k
  | Candidate { name } -> "cand:" ^ name
  | Vc { n } -> Fmt.str "vc:%d" n
  | Bcast { n } -> Fmt.str "bcast:%d" n

let question_label = function
  | Solve -> "solve"
  | Valence -> "valence"
  | Live -> "live"

(* Substrate names as plain query data; the record is rebuilt on the
   computing side.  "mp+byz:f" carries its Byzantine budget because the
   network object's delivery guard depends on it — same graph-changing
   status as the reduction mode. *)
let substrate_of_name = function
  | "shm" -> Some (Substrate.shm, 0)
  | "mp" -> Some (Substrate.mp (), 0)
  | name -> (
    match String.split_on_char ':' name with
    | [ "mp+byz"; f ] -> (
      match int_of_string_opt f with
      | Some f when f >= 0 -> Some (Substrate.mp ~byz:f (), f)
      | _ -> None)
    | _ -> None)

let mp_task = function Vc _ | Bcast _ -> true | _ -> false

let default_substrate task = if mp_task task then "mp" else "shm"

(* The canonical preimage pins EVERYTHING the answer is a function of:
   task, question, the full input vector, the state quota, the
   reduction mode and the execution substrate.  The original `lbsa
   fingerprint` ignored everything after the inputs, so two
   semantically different queries could share a key; the serve cache
   would then return one query's verdict for the other.  /2 added the
   substrate and the liveness question — a liveness answer and a safety
   answer on the same task must never share a key, nor may the same
   task under shm and mp fairness.  Budget-side knobs (deadline,
   domains, worker count) stay out — they can change how long an answer
   takes, never what it is. *)
let canonical = function
  | Verify v ->
    Fmt.str "lbsa-query/2 verify task=%s question=%s inputs=%s max_states=%d \
             reduce=%s substrate=%s"
      (task_label v.task)
      (question_label v.question)
      (String.concat "," (List.map string_of_int v.inputs))
      v.max_states (reduce_name v.reduce) v.substrate
  | Fuzz f ->
    Fmt.str "lbsa-query/2 fuzz target=%s trials=%d procs=%d ops=%d seed=%d"
      f.target f.trials f.procs f.ops f.seed

let key q = Fnv.to_hex (Fnv.string (canonical q))

(* --- the task registry ---------------------------------------------------- *)

(* Everything a front-end needs to ask about a task lives here: its
   [dac:<n>]-style syntax, its instance (machine, object specs, checker
   flavor, certified symmetry group, frozen-object hook), its default
   input vector, its input family and its reduction.  The CLI and the
   daemon read tasks from this one place. *)

type flavor = Check_dac | Check_consensus | Check_kset of int

type instance = {
  machine : Machine.t;
  specs : Obj_spec.t array;
  procs : int;
  flavor : flavor;
  canon : Canon.t;
  frozen : (int -> Value.t -> bool) option;
}

(* dac's PAC object (index 0) is permanently inert once upset: its state
   never changes again and every propose gets the same abort response —
   exactly the certification the sleep layer's [frozen] hook wants. *)
let dac_frozen obj st = obj = 0 && Lbsa_objects.Pac.is_upset st

(* The candidates the paper proves must fail: the task each attempts,
   its process count, and its protocol, built only when asked for. *)
let candidates =
  [
    ( "flp-write-read",
      (Check_consensus, 2, fun () -> Candidates.flp_write_read) );
    ("flp-spin", (Check_consensus, 2, fun () -> Candidates.flp_spin));
    ( "3dac-sa2-then-cons2",
      (Check_dac, 3, fun () -> Candidates.dac3_sa2_then_cons2) );
    ( "3dac-cons2-announce",
      (Check_dac, 3, fun () -> Candidates.dac3_cons2_announce) );
    ( "3cons-from-22pac",
      ( Check_consensus,
        3,
        fun () -> Candidates.consensus_m1_from_pac_nm ~n:2 ~m:2 ) );
    ( "pac-retry",
      ( Check_consensus,
        2,
        fun () -> Candidates.consensus_from_pac_retry ~n:2 ~procs:2 ) );
  ]

let candidate_names = List.map fst candidates

let unknown_candidate name =
  Fmt.str "unknown candidate %S; known: %s" name
    (String.concat ", " candidate_names)

let candidate name =
  match List.assoc_opt name candidates with
  | Some c -> c
  | None -> invalid_arg (unknown_candidate name)

let task_of_string s =
  let int_ge lo v k =
    match int_of_string_opt v with
    | Some v when v >= lo -> Ok (k v)
    | _ -> Error (Fmt.str "%S: expected an integer >= %d" s lo)
  in
  match String.split_on_char ':' s with
  | [ "dac"; n ] -> int_ge 2 n (fun n -> Dac { n })
  | [ "cons"; m ] | [ "consensus"; m ] -> int_ge 1 m (fun m -> Consensus { m })
  | [ "kset"; m; k ] ->
    Result.bind (int_ge 1 m Fun.id) (fun m ->
        int_ge 1 k (fun k -> Kset { m; k }))
  | "cand" :: (_ :: _ as rest) | "candidate" :: (_ :: _ as rest) ->
    let name = String.concat ":" rest in
    if List.mem name candidate_names then Ok (Candidate { name })
    else Error (unknown_candidate name)
  | [ "vc"; n ] -> int_ge 2 n (fun n -> Vc { n })
  | [ "bcast"; n ] -> int_ge 1 n (fun n -> Bcast { n })
  | _ ->
    Error
      "task is dac:<n> | cons:<m> | kset:<m>:<k> | cand:<name> | vc:<n> | \
       bcast:<n>"

let instance ?(byz = 0) = function
  | Dac { n } ->
    {
      machine = Dac_from_pac.machine ~n;
      specs = Dac_from_pac.specs ~n;
      procs = n;
      flavor = Check_dac;
      canon = Canon.dac ~n;
      frozen = Some dac_frozen;
    }
  | Consensus { m } ->
    let machine, specs = Consensus_protocols.from_consensus_obj ~m in
    {
      machine;
      specs;
      procs = m;
      flavor = Check_consensus;
      canon = Canon.exchangeable ~n:m ();
      frozen = None;
    }
  | Kset { m; k } ->
    let machine, specs = Kset_protocols.partition ~m ~k in
    {
      machine;
      specs;
      procs = m * k;
      flavor = Check_kset k;
      canon = Canon.kset_partition ~m ~k;
      frozen = None;
    }
  | Candidate { name } ->
    let flavor, procs, build = candidate name in
    let machine, specs = build () in
    (* No certified symmetry group for free-form candidates: [sym] is
       the identity quotient, [sym+sleep] still prunes commit steps. *)
    { machine; specs; procs; flavor; canon = Canon.identity; frozen = None }
  | Vc { n } ->
    (* Message-passing tasks: no certified symmetry group (the leader
       breaks exchangeability), no frozen objects — both reductions are
       identity quotients, so verdicts agree across --reduce modes by
       construction. *)
    {
      machine = View_change.machine ~n;
      specs = View_change.specs ~byz ~n ();
      procs = n;
      flavor = Check_consensus;
      canon = Canon.identity;
      frozen = None;
    }
  | Bcast { n } ->
    {
      machine = View_change.bcast_machine ~n;
      specs = View_change.bcast_specs ~byz ~n ();
      procs = n;
      flavor = Check_consensus;
      canon = Canon.identity;
      frozen = None;
    }

let default_inputs = function
  | Dac { n } -> List.init n (fun pid -> if pid = 0 then 1 else 0)
  | Consensus { m } -> List.init m (fun pid -> pid mod 2)
  | Kset { m; k } -> List.init (m * k) Fun.id
  | Candidate { name } ->
    let _, procs, _ = candidate name in
    List.init procs (fun pid -> pid mod 2)
  | Vc { n } | Bcast { n } ->
    (* input-free protocols; the vector only fixes the arity *)
    List.init n (fun _ -> 0)

let values l = Array.of_list (List.map Value.int l)

(* The vectors a solvability check must pass: every binary vector for
   the agreement tasks, the one default vector for the rest. *)
let input_family task inst =
  match task with
  | Dac _ | Consensus _ | Candidate _ -> Consensus_task.binary_inputs inst.procs
  | Kset _ | Vc _ | Bcast _ -> [ values (default_inputs task) ]

(* [canon] is the task's certified symmetry group — identity when none
   is certified, in which case the mode still applies the sleep layer
   and keeps its requested name so labels and checkpoints stay
   consistent. *)
let reduction_for inst (mode : reduce_mode) : Graph.reduction =
  match mode with
  | `None -> Graph.no_reduction
  | `Sym -> { Graph.rname = "sym"; canon = inst.canon; sleep = false; frozen = None }
  | `Sym_sleep ->
    { Graph.rname = "sym+sleep"; canon = inst.canon; sleep = true;
      frozen = inst.frozen }

(* The substrate is not a free knob: message-passing tasks need the
   network-fairness constraints (and build their network object from
   the substrate's byz budget), shared-memory tasks mean nothing under
   them. *)
let resolve_substrate ?substrate task =
  let substrate_name =
    Option.value substrate ~default:(default_substrate task)
  in
  let substrate, byz =
    match substrate_of_name substrate_name with
    | Some s -> s
    | None ->
      invalid_arg
        (Fmt.str "unknown substrate %S (try shm, mp, mp+byz:<f>)"
           substrate_name)
  in
  if mp_task task && substrate.Substrate.sname = "shm" then
    invalid_arg
      (Fmt.str "task %s is message-passing; use --substrate mp"
         (task_label task));
  if (not (mp_task task)) && substrate.Substrate.sname <> "shm" then
    invalid_arg
      (Fmt.str "task %s is shared-memory; use --substrate shm"
         (task_label task));
  (substrate, byz)

let resolve ?substrate task =
  let substrate, byz = resolve_substrate ?substrate task in
  (substrate, instance ~byz task)

let solvability inst ?max_states ?domains ?budget ?substrate ?reduce ?resume
    ?spill ~inputs () =
  let machine = inst.machine and specs = inst.specs in
  match inst.flavor with
  | Check_dac ->
    Solvability.check_dac ?max_states ?domains ?budget ?substrate ?reduce
      ?resume ?spill ~machine ~specs ~inputs ()
  | Check_consensus ->
    Solvability.check_consensus ?max_states ?domains ?budget ?substrate
      ?reduce ?resume ?spill ~machine ~specs ~inputs ()
  | Check_kset k ->
    Solvability.check_kset ?max_states ?domains ?budget ?substrate ?reduce
      ?resume ?spill ~machine ~specs ~k ~inputs ()

(* Witness searches always explore unreduced, so only the flavor picks
   the judge. *)
let witness inst ~max_states ~inputs =
  let machine = inst.machine and specs = inst.specs in
  match inst.flavor with
  | Check_dac -> Solvability.dac_witness ~max_states ~machine ~specs ~inputs ()
  | Check_consensus | Check_kset _ ->
    Solvability.consensus_witness ~max_states ~machine ~specs ~inputs ()

(* --- answering ---------------------------------------------------------- *)

type computed = {
  res : result;
  cacheable : bool;
      (** safe to memoize forever: the result is a pure function of the
          canonical key.  [Done] results always are; [Truncated] ones
          are too, because [max_states] is part of the key; deadline /
          cancellation / worker-failure results are not. *)
  fuzz_prefix : int option;
      (** on a partial fuzz campaign: the completed-trial prefix worth
          persisting so an identical query resumes instead of replaying *)
}

let cacheable_outcome = function
  | Supervisor.Done | Supervisor.Truncated -> true
  | Supervisor.Deadline | Supervisor.Cancelled | Supervisor.Worker_failed _ ->
    false

let verdict_payload (v : Solvability.verdict) =
  {
    v_ok = v.Solvability.ok;
    v_outcome = Fmt.str "%a" Supervisor.pp_outcome v.Solvability.outcome;
    v_partial = Supervisor.is_partial v.Solvability.outcome;
    v_inputs = Array.to_list (Array.map Value.to_int_exn v.Solvability.inputs);
    v_states = v.Solvability.states;
    v_failure = v.Solvability.failure;
  }

(* One question on one input vector, plus the solvability verdict when
   the question is [Solve].  [domains] is the explorer's parallelism,
   auto when absent. *)
let answer ?domains ~budget ~substrate ~reduce ~max_states ~inputs
    inst question =
  let machine = inst.machine and specs = inst.specs in
  let build () =
    Graph.build ~max_states ?domains ~budget ~substrate ~reduce ~machine ~specs
      ~inputs ()
  in
  let of_graph graph res =
    let cacheable = cacheable_outcome graph.Graph.stop in
    ({ res; cacheable; fuzz_prefix = None }, None)
  in
  let cut graph =
    let truncated = graph.Graph.stop = Supervisor.Truncated in
    (truncated, graph.Graph.truncated && not truncated)
  in
  match question with
  | Solve ->
    let verdict =
      solvability inst ~max_states ?domains ~budget ~substrate ~reduce ~inputs
        ()
    in
    ( {
        res = Verdict (verdict_payload verdict);
        cacheable = cacheable_outcome verdict.Solvability.outcome;
        fuzz_prefix = None;
      },
      Some verdict )
  | Valence ->
    let graph = build () in
    let l_truncated, l_partial = cut graph in
    let a = Lbsa_modelcheck.Valence.analyze graph in
    let s = Lbsa_modelcheck.Valence.summarize a in
    of_graph graph
      (Valences
         {
           l_nodes = Graph.n_nodes graph;
           l_edges = Graph.n_edges graph;
           l_truncated;
           l_partial;
           l_bivalent = s.Lbsa_modelcheck.Valence.n_bivalent;
           l_univalent = s.Lbsa_modelcheck.Valence.n_univalent;
           l_undecided = s.Lbsa_modelcheck.Valence.n_undecided;
           l_initial =
             Fmt.str "%a" Lbsa_modelcheck.Valence.pp_classification
               (Lbsa_modelcheck.Valence.classify a graph.Graph.initial);
         })
  | Live ->
    let graph = build () in
    let lv_truncated, lv_partial = cut graph in
    let report = Liveness.analyze ~machine ~specs ~substrate graph in
    let live =
      {
        lv_live = true;
        lv_nodes = Graph.n_nodes graph;
        lv_sccs = report.Liveness.sccs;
        lv_fair = 0;
        lv_truncated;
        lv_partial;
        lv_prefix = 0;
        lv_cycle = 0;
        lv_witness = None;
      }
    in
    of_graph graph
      (Liveness_report
         (match report.Liveness.verdict with
         | Liveness.Live -> live
         | Liveness.Livelock w ->
           let w, _steps =
             Lbsa_fuzz.Lasso.shrink ~machine ~specs ~substrate ~graph w
           in
           {
             live with
             lv_live = false;
             lv_fair = report.Liveness.fair_sccs;
             lv_prefix = List.length w.Liveness.w_prefix;
             lv_cycle = List.length w.Liveness.w_cycle;
             lv_witness = Some (Fmt.str "%a" Liveness.pp_witness w);
           }))

(* Every refusal [compute] makes, checked without building the protocol
   ([default_inputs] has the instance's arity). *)
let validate = function
  | Verify v ->
    ignore (resolve_substrate ~substrate:v.substrate v.task);
    let procs = List.length (default_inputs v.task) in
    if List.length v.inputs <> procs then
      invalid_arg
        (Fmt.str "task %s expects %d inputs, got %d" (task_label v.task) procs
           (List.length v.inputs))
  | Fuzz f ->
    ignore (Lbsa_fuzz.Targets.spec_target f.target);
    if f.trials < 1 then
      invalid_arg (Fmt.str "fuzz trials must be >= 1, got %d" f.trials);
    (* No clients or no operations make every trial vacuously clean. *)
    if f.procs < 1 then
      invalid_arg (Fmt.str "fuzz procs must be >= 1, got %d" f.procs);
    if f.ops < 1 then
      invalid_arg (Fmt.str "fuzz ops must be >= 1, got %d" f.ops)

let compute ?(budget = Supervisor.Budget.unlimited) ?(start = 0) q : computed =
  validate q;
  match q with
  | Verify v ->
    let substrate, inst = resolve ~substrate:v.substrate v.task in
    let reduce = reduction_for inst v.reduce in
    fst
      (answer ~domains:1 ~budget ~substrate ~reduce ~max_states:v.max_states
         ~inputs:(values v.inputs) inst v.question)
  | Fuzz f ->
    let target = Lbsa_fuzz.Targets.spec_target f.target in
    let report =
      Lbsa_fuzz.Engine.fuzz_spec ~domains:1 ~start ~budget ~procs:f.procs
        ~ops_per_proc:f.ops ~trials:f.trials ~seed:f.seed target
    in
    let partial =
      Supervisor.is_partial report.Lbsa_fuzz.Engine.outcome
      && report.Lbsa_fuzz.Engine.failure = None
    in
    {
      res =
        Fuzz_report
          {
            f_target = f.target;
            f_trials = f.trials;
            f_completed = report.Lbsa_fuzz.Engine.completed;
            f_partial = partial;
            f_failure =
              Option.map
                (fun (fl : Lbsa_fuzz.Engine.failure) ->
                  Fmt.str "trial %d: %a%s" fl.Lbsa_fuzz.Engine.trial
                    Lbsa_fuzz.Engine.pp_kind fl.Lbsa_fuzz.Engine.kind
                    (match fl.Lbsa_fuzz.Engine.shrunk with
                    | Some (c, _) ->
                      Fmt.str " (shrunk to %d calls)"
                        (Lbsa_fuzz.Fuzz_case.n_calls c)
                    | None -> ""))
                report.Lbsa_fuzz.Engine.failure;
            f_resumed_from = start;
          };
      (* A failure is definitive and reproducible from (seed, trial):
         cacheable.  A clean full run is cacheable.  A deadline-cut
         clean prefix is not a final answer: persist it as a prefix. *)
      cacheable = not partial;
      fuzz_prefix = (if partial then Some report.Lbsa_fuzz.Engine.completed
                     else None);
    }

type checked = {
  answer : result;
  instance : instance;
  verdict : Solvability.verdict option;
  family : Solvability.family_stats option;
}

(* The whole-task check behind `lbsa check`: the solvability question
   over the task's input family, or another question on its default
   vector.  A multi-vector sweep runs sequentially with the explorer at
   its default parallelism; [domains] > 0 fans the vectors out instead,
   one domain each.  A one-vector family hands [domains] to the
   explorer. *)
let check ?(budget = Supervisor.Budget.unlimited) ?(domains = 0) ~question
    ~max_states ~reduce ?substrate task =
  let substrate, inst = resolve ?substrate task in
  let reduce = reduction_for inst reduce in
  let explorer = if domains <= 0 then None else Some domains in
  match (question, input_family task inst) with
  | Solve, (_ :: _ :: _ as vectors) ->
    let sweep, inner = if domains <= 0 then (1, None) else (domains, Some 1) in
    let verdict, family =
      Solvability.for_all_inputs_timed ~domains:sweep ~budget
        (fun inputs ->
          solvability inst ~max_states ?domains:inner ~budget ~substrate
            ~reduce ~inputs ())
        vectors
    in
    { answer = Verdict (verdict_payload verdict); instance = inst;
      verdict = Some verdict; family = Some family }
  | _ ->
    let c, verdict =
      answer ?domains:explorer ~budget ~substrate ~reduce ~max_states
        ~inputs:(values (default_inputs task)) inst question
    in
    { answer = c.res; instance = inst; verdict; family = None }

(* --- rendering ---------------------------------------------------------- *)

(* The canonical one-line rendering of a result: what `lbsa query`
   prints, and the form the test battery byte-compares between cold,
   warm and cross-restart answers.  [f_resumed_from] is deliberately
   excluded — a resumed campaign must render exactly as an
   uninterrupted one (the checkpoint layer's contract). *)
let render = function
  | Verdict v ->
    let inputs = String.concat "," (List.map string_of_int v.v_inputs) in
    if v.v_ok then Fmt.str "OK (inputs=%s, %d states)" inputs v.v_states
    else if v.v_partial then
      Fmt.str "PARTIAL [%s] (inputs=%s, %d states): %s" v.v_outcome inputs
        v.v_states
        (Option.value v.v_failure ~default:"?")
    else
      Fmt.str "FAIL (inputs=%s, %d states): %s" inputs v.v_states
        (Option.value v.v_failure ~default:"?")
  | Valences l ->
    Fmt.str
      "%d configurations (%d edges)%s; valence: %d bivalent, %d univalent, \
       %d undecided; initial %s"
      l.l_nodes l.l_edges
      (if l.l_truncated then " [TRUNCATED]"
       else if l.l_partial then " [PARTIAL]"
       else "")
      l.l_bivalent l.l_univalent l.l_undecided l.l_initial
  | Fuzz_report f ->
    Fmt.str "fuzz %s: %d/%d trials, %s" f.f_target f.f_completed f.f_trials
      (match f.f_failure with
      | None -> if f.f_partial then "clean so far (partial)" else "clean"
      | Some s -> "FAILED at " ^ s)
  | Liveness_report l ->
    let qualifier =
      if l.lv_truncated then " [TRUNCATED]"
      else if l.lv_partial then " [PARTIAL]"
      else ""
    in
    if l.lv_live then
      Fmt.str "LIVE (%d configurations, %d SCCs, no fair cycle)%s" l.lv_nodes
        l.lv_sccs qualifier
    else
      Fmt.str
        "LIVELOCK (%d configurations, %d fair SCC%s of %d): lasso prefix=%d \
         cycle=%d%s"
        l.lv_nodes l.lv_fair
        (if l.lv_fair = 1 then "" else "s")
        l.lv_sccs l.lv_prefix l.lv_cycle qualifier

(* The CLI-wide exit-code policy applied to a service result.  A
   livelock is a definitive failure (1); a Live verdict on a truncated
   or budget-cut graph is only a partial answer (2) — a fair cycle
   could hide past the cut — while a livelock found in a prefix is
   already definitive. *)
let exit_code = function
  | Verdict v -> if v.v_partial then 2 else if v.v_ok then 0 else 1
  | Valences l -> if l.l_truncated || l.l_partial then 2 else 0
  | Fuzz_report f ->
    if f.f_failure <> None then 1 else if f.f_partial then 2 else 0
  | Liveness_report l ->
    if not l.lv_live then 1 else if l.lv_truncated || l.lv_partial then 2 else 0
