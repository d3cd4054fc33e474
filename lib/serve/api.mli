(** The verification-service API: a pure-data query language, a
    canonical content-address per query, the task registry, and the
    cold compute path.

    Every front-end — the unix-socket daemon in {!Daemon}, the CLI's
    [lbsa query], later HTTP or batch-file backends — speaks this module
    and nothing lower: a query is plain data (no [Value.t], no intern
    ids), its {!canonical} preimage pins everything the answer depends
    on, and {!compute} answers it by running the verification pipeline.

    The cache-correctness contract: [compute q] is a pure function of
    [canonical q] whenever the returned {!computed.cacheable} is true.
    That is what makes content-addressed memoization sound — and why the
    reduction mode, input vector and state quota are all part of the
    preimage (the original [lbsa fingerprint] omitted them; two
    semantically different queries could share a key). *)

open Lbsa_spec
open Lbsa_runtime

type reduce_mode = [ `None | `Sym | `Sym_sleep ]

type task =
  | Dac of { n : int }
  | Consensus of { m : int }
  | Kset of { m : int; k : int }
  | Candidate of { name : string }
  | Vc of { n : int }  (** message-passing view change (livelock fixture) *)
  | Bcast of { n : int }  (** message-passing broadcast (live control) *)

type question = Solve | Valence | Live

type query =
  | Verify of {
      task : task;
      question : question;
      inputs : int list;  (** full input vector, one int per process *)
      max_states : int;
      reduce : reduce_mode;
      substrate : string;
          (** execution-substrate name ("shm", "mp", "mp+byz:<f>");
              graph-changing, hence part of the canonical preimage *)
    }
  | Fuzz of { target : string; trials : int; procs : int; ops : int; seed : int }
      (** a spec-level fuzz campaign against a registry target
          ([Targets.spec_target] syntax); trials are pure functions of
          [(seed, index)], so completed prefixes are reusable *)

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
      (** trials skipped thanks to a cached prefix; metadata only —
          {!render} excludes it, so resumed output equals cold output *)
}

type live_payload = {
  lv_live : bool;
  lv_nodes : int;
  lv_sccs : int;
  lv_fair : int;  (** fair (livelock-supporting) SCC count *)
  lv_truncated : bool;  (** the [max_states] quota fired (key-determined) *)
  lv_partial : bool;  (** a budget cut the build (not key-determined) *)
  lv_prefix : int;  (** shrunk lasso prefix length; 0 when live *)
  lv_cycle : int;  (** shrunk lasso cycle length; 0 when live *)
  lv_witness : string option;
      (** the shrunk lasso rendered as execution traces; deterministic
          for a given query (single-domain build, greedy shrink) *)
}

type result =
  | Verdict of verify_payload
  | Valences of valence_payload
  | Fuzz_report of fuzz_payload
  | Liveness_report of live_payload

(** {2 Canonical fingerprint} *)

val canonical : query -> string
(** The full preimage: task, question, inputs, [max_states], reduction
    mode (or fuzz target/trials/procs/ops/seed).  Cross-process stable
    by construction — plain data in, deterministic formatting out. *)

val key : query -> string
(** 16-hex-digit FNV-1a digest of {!canonical} — the store filename.
    Consumers must verify the stored preimage against [canonical q] on
    every read; the digest routes, the preimage decides. *)

val reduce_name : reduce_mode -> string
val task_label : task -> string
val question_label : question -> string

val substrate_of_name : string -> (Substrate.t * int) option
(** The substrate record plus its Byzantine budget ("shm" and "mp"
    carry 0); [None] on unknown syntax. *)

val mp_task : task -> bool
(** Whether the task runs on the message-passing substrate ({!Vc},
    {!Bcast}).  [compute] rejects mp tasks under "shm" and vice versa. *)

val default_substrate : task -> string
(** "mp" for message-passing tasks, "shm" otherwise. *)

(** {2 The task registry}

    The one place a task is declared: its syntax, its instance, its
    default inputs, its input family and its reduction.  Every
    front-end reads tasks from here. *)

val task_of_string : string -> (task, string) Stdlib.result
(** [dac:<n> | cons:<m> | kset:<m>:<k> | cand:<name> | vc:<n> |
    bcast:<n>]; the inverse of {!task_label}. *)

val candidate_names : string list
(** The candidates, in registry order. *)

type flavor = Check_dac | Check_consensus | Check_kset of int
    (** which task the solvability checker holds the protocol to *)

type instance = {
  machine : Machine.t;
  specs : Obj_spec.t array;
  procs : int;
  flavor : flavor;
  canon : Lbsa_modelcheck.Canon.t;  (** the certified symmetry group *)
  frozen : (int -> Value.t -> bool) option;
      (** objects certified inert, for the sleep layer *)
}

val instance : ?byz:int -> task -> instance
(** Builds the protocol; [byz] sizes the network object of the
    message-passing tasks.  Raises [Invalid_argument] on an unknown
    candidate. *)

val default_inputs : task -> int list
(** The task's canonical input vector. *)

val reduction_for : instance -> reduce_mode -> Lbsa_modelcheck.Graph.reduction

val resolve : ?substrate:string -> task -> Substrate.t * instance
(** The named substrate (default {!default_substrate}) and the instance
    built on it.  Raises
    [Invalid_argument] on unknown substrate syntax or when the task and
    the substrate belong to different families (shared memory vs
    message passing). *)

val solvability :
  instance ->
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:Lbsa_modelcheck.Graph.reduction ->
  ?resume:Lbsa_modelcheck.Graph.suspended ->
  ?spill:Lbsa_modelcheck.Graph.spill ->
  inputs:Value.t array ->
  unit ->
  Lbsa_modelcheck.Solvability.verdict
(** The instance's solvability check on one input vector. *)

val witness :
  instance ->
  max_states:int ->
  inputs:Value.t array ->
  Lbsa_modelcheck.Solvability.witness_search
(** The shortest schedule to a safety violation on [inputs]. *)

(** {2 Answering} *)

type computed = {
  res : result;
  cacheable : bool;
      (** the result is a pure function of the canonical key: [Done]
          and [Truncated] outcomes qualify ([max_states] is in the
          key); deadline / cancellation / worker failures do not *)
  fuzz_prefix : int option;
      (** on a deadline-cut clean fuzz campaign: the completed-trial
          prefix worth persisting for resumption *)
}

val compute : ?budget:Supervisor.Budget.t -> ?start:int -> query -> computed
(** Run the query.  [budget] bounds wall clock and carries the
    cancellation token ({!Supervisor.Budget}); [start] (fuzz only)
    resumes from a completed-trial prefix.  The explorer and fuzz
    fan-out are pinned to one domain — the service's worker pool is the
    parallelism layer.  Raises [Invalid_argument] exactly when
    {!validate} does. *)

val validate : query -> unit
(** The checks {!compute} makes before it runs anything, without
    building the protocol.  Raises [Invalid_argument] on an unknown
    candidate, a substrate of the wrong family, an input vector of the
    wrong arity, an unparsable fuzz target, or fewer than one fuzz
    trial, process or operation per process. *)

type checked = {
  answer : result;
  instance : instance;
  verdict : Lbsa_modelcheck.Solvability.verdict option;
      (** the reported vector's verdict, for the solve question *)
  family : Lbsa_modelcheck.Solvability.family_stats option;
      (** sweep statistics, when the family has several vectors *)
}

val check :
  ?budget:Supervisor.Budget.t ->
  ?domains:int ->
  question:question ->
  max_states:int ->
  reduce:reduce_mode ->
  ?substrate:string ->
  task ->
  checked
(** A whole-task check: [Solve] sweeps the task's input family (every
    binary vector for dac, consensus and the candidates; the default
    vector otherwise) and reports the first failing vector or the last
    passing one; [Valence] and [Live] ask about the default vector.  A
    multi-vector sweep runs sequentially with the explorer at its
    default parallelism, or fans out over [domains] > 0 with one domain
    per vector; a one-vector question hands [domains] to the explorer.
    [substrate] defaults to {!default_substrate}.  Raises
    [Invalid_argument] like {!compute}. *)

(** {2 Rendering} *)

val render : result -> string
(** The canonical one-line form: what [lbsa query] prints and what the
    test battery byte-compares across cold, warm and cross-restart
    answers. *)

val exit_code : result -> int
(** The CLI-wide 0/1/2 policy applied to a result. *)
