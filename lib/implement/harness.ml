open Lbsa_spec
open Lbsa_runtime
open Lbsa_linearizability

(* The implementation-testing harness: drive concurrent clients through
   an implementation's operation programs under a schedule, record the
   concurrent history of target-level calls, and check it against the
   target specification with the Wing-Gong checker.

   Granularity: each base-object operation is one atomic step; a target
   call's invocation event is recorded when its program starts, its
   response event when the program reaches [Decide]. *)

(* How base-object nondeterminism is resolved, as a branch-index picker. *)
type nondet =
  | First
  | Random of Lbsa_util.Prng.t

let branch_choice = function
  | First -> fun _count -> 0
  | Random prng -> fun count -> Lbsa_util.Prng.int prng count

(* A client's target call in flight: the op, its invocation time and
   the program's local state. *)
type call = Op.t * int * Value.t

type client = {
  mutable todo : Op.t list;  (* target ops yet to start *)
  mutable current : call option;
  mutable done_calls : Chistory.call list;
}

type run = {
  history : Chistory.t;
  pending : Checker.pending list;
      (* target calls invoked but never answered: the run's schedule
         ended (crash plan, solo burst) mid-operation *)
  base_final : Value.t array;
  steps : int;
}

exception Stuck of string

(* What one client step does; the caller applies it. *)
type move =
  | Base of {
      obj : int;
      branches : Obj_spec.branch list;
      resume : Obj_spec.branch -> call;  (* the call after that branch *)
    }  (* one base-object step, with every branch the object allows *)
  | Answer of Chistory.call  (* the program decided; the call completes *)

(* One atomic step of client [pid], the step semantics [run_clients] and
   [exhaustive] share: start the client's next op if it has no call in
   flight (its invocation takes the next clock tick), then run one
   program transition (a base-object step, or the final Decide, whose
   response takes the next tick).  [clock] is the last tick used;
   returns the client's remaining ops, the new clock and the move. *)
let step ~(impl : Implementation.t) ~objects ~pid ~clock ~todo current =
  let (op, inv, local), todo, clock =
    match current with
    | Some call -> (call, todo, clock)
    | None -> (
      match todo with
      | [] -> raise (Stuck (Fmt.str "client %d scheduled while idle" pid))
      | op :: rest ->
        ((op, clock + 1, (impl.program ~pid op).start), rest, clock + 1))
  in
  match (impl.program ~pid op).delta ~pid local with
  | Machine.Invoke { obj; op = base_op; resume } ->
    let branches = Obj_spec.branches impl.base.(obj) objects.(obj) base_op in
    let resume (b : Obj_spec.branch) = (op, inv, resume b.response) in
    (todo, clock, Base { obj; branches; resume })
  | Machine.Decide response ->
    let res = clock + 1 in
    (todo, res, Answer (Chistory.call ~pid ~op ~response ~inv ~res))
  | Machine.Abort ->
    raise (Stuck (Fmt.str "implementation program aborted (client %d)" pid))

let run_clients ?(nondet = First) ?(max_steps = 100_000)
    ~(impl : Implementation.t) ~(workloads : Op.t list array)
    ~(scheduler : Scheduler.t) () : run =
  let n = Array.length workloads in
  let clients =
    Array.map (fun ops -> { todo = ops; current = None; done_calls = [] }) workloads
  in
  let objects = Array.map (fun (s : Obj_spec.t) -> s.initial) impl.base in
  let clock = ref 0 in
  let choose = branch_choice nondet in
  let busy pid = clients.(pid).current <> None || clients.(pid).todo <> [] in
  let advance pid =
    let c = clients.(pid) in
    let todo, clock', move =
      step ~impl ~objects ~pid ~clock:!clock ~todo:c.todo c.current
    in
    c.todo <- todo;
    clock := clock';
    match move with
    | Base { obj; branches; resume } ->
      let b = List.nth branches (choose (List.length branches)) in
      objects.(obj) <- b.next;
      c.current <- Some (resume b)
    | Answer call ->
      c.current <- None;
      c.done_calls <- call :: c.done_calls
  in
  let steps = ref 0 in
  let rec loop i =
    if i >= max_steps then
      raise (Stuck (Fmt.str "harness exceeded %d steps" max_steps));
    let runnable = List.filter busy (Lbsa_util.Listx.range 0 (n - 1)) in
    match runnable with
    | [] -> ()
    | _ -> (
      match scheduler.Scheduler.next ~step:i ~runnable with
      | None -> ()
      | Some pid ->
        advance pid;
        incr steps;
        loop (i + 1))
  in
  loop 0;
  let history =
    Array.to_list clients
    |> List.concat_map (fun c -> List.rev c.done_calls)
    |> List.sort (fun (a : Chistory.call) b -> Stdlib.compare a.inv b.inv)
  in
  let pending =
    Array.to_list clients
    |> List.mapi (fun pid c -> (pid, c.current))
    |> List.filter_map (fun (pid, cur) ->
           Option.map
             (fun (op, inv, _) -> { Checker.pid; op; inv })
             cur)
  in
  { history; pending; base_final = objects; steps = !steps }

(* Run and check: the implementation is correct on this workload/schedule
   iff the produced concurrent history — with its in-flight calls given
   the drop-or-any-response completion semantics — linearizes against
   the target.  [session] (a [Checker.session] for [impl.target]) reuses
   the checker's spec-transition and state-set memos across checks
   (value interning is global now, so that is all a session carries);
   the outcome does not depend on it. *)
let check ?session ?(nondet = First) ?(max_steps = 100_000)
    ~(impl : Implementation.t) ~workloads ~scheduler () =
  let run = run_clients ~nondet ~max_steps ~impl ~workloads ~scheduler () in
  let session =
    match session with Some s -> s | None -> Checker.session impl.target
  in
  (run, Checker.check_with ~pending:run.pending session run.history)

(* Exhaustive campaign over *all* interleavings of the client programs
   (and all object nondeterminism), for tiny workloads: enumerate every
   schedule as a sequence of client picks via DFS.  Returns the number of
   complete interleavings checked, or the first failing run. *)
let exhaustive ?(max_steps = 40) ~(impl : Implementation.t) ~workloads () =
  let n = Array.length workloads in
  let checked = ref 0 in
  let failure = ref None in
  (* One checker session for the whole enumeration: every complete
     interleaving is checked against the same target spec. *)
  let session = Checker.session impl.target in
  (* State: per-client todo/current, object states, clock, history. *)
  let rec go todo current objects clock history depth =
    if !failure <> None then ()
    else begin
      let busy pid = current.(pid) <> None || todo.(pid) <> [] in
      let runnable = List.filter busy (Lbsa_util.Listx.range 0 (n - 1)) in
      if runnable = [] then begin
        incr checked;
        let h =
          List.sort
            (fun (a : Chistory.call) b -> Stdlib.compare a.inv b.inv)
            history
        in
        match Checker.check_with session h with
        | Checker.Linearizable _ -> ()
        | Checker.Not_linearizable -> failure := Some h
      end
      else if depth >= max_steps then
        invalid_arg "Harness.exhaustive: max_steps too small for workload"
      else
        List.iter
          (fun pid ->
            if !failure = None then begin
              let todo_pid, clock, move =
                step ~impl ~objects ~pid ~clock ~todo:todo.(pid) current.(pid)
              in
              let todo =
                match current.(pid) with
                | Some _ -> todo
                | None ->
                  let todo = Array.copy todo in
                  todo.(pid) <- todo_pid;
                  todo
              in
              let current' call =
                let current = Array.copy current in
                current.(pid) <- call;
                current
              in
              match move with
              | Base { obj; branches; resume } ->
                List.iter
                  (fun (b : Obj_spec.branch) ->
                    if !failure = None then begin
                      let objects' = Array.copy objects in
                      objects'.(obj) <- b.next;
                      go todo (current' (Some (resume b))) objects' clock
                        history (depth + 1)
                    end)
                  branches
              | Answer call ->
                go todo (current' None) objects clock (call :: history)
                  (depth + 1)
            end)
          runnable
    end
  in
  let todo = Array.map (fun ops -> ops) workloads in
  let current = Array.make n None in
  let objects = Array.map (fun (s : Obj_spec.t) -> s.initial) impl.base in
  go todo current objects 0 [] 0;
  match !failure with
  | None -> Ok !checked
  | Some h -> Error h
