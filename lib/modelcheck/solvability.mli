(** Exhaustive task verification: does a protocol solve a task for every
    schedule and every resolution of object nondeterminism?  Safety is
    checked at every reachable configuration; liveness reduces to
    structural properties of the finite configuration graph. *)

open Lbsa_spec
open Lbsa_runtime

type verdict = {
  ok : bool;
  outcome : Supervisor.outcome;
      (** [Done] = definitive; anything else = partial — the explored
          prefix satisfied safety but exploration was cut short by a
          quota, deadline, cancellation or worker failure.  A safety
          violation found in a partial graph is still a definitive
          failure ([outcome = Done], [ok = false]). *)
  inputs : Value.t array;
  states : int;
  failure : string option;
  stats : Graph.stats option;
      (** exploration statistics of the checked graph, when one was
          built *)
  suspended : Graph.suspended option;
      (** the frozen exploration on partial outcomes; persist with
          {!Checkpoint} and pass back via [~resume] *)
}

val pp_verdict : Format.formatter -> verdict -> unit

val cycle_with_step_of : Graph.t -> comp:int array -> int -> int option
(** A node on a reachable cycle containing a step of the given process —
    a wait-freedom violation witness.  [comp] is the graph's
    {!Graph.scc} component array. *)

val any_cycle : Graph.t -> int option

(** {2 Solo termination} *)

(** What a solo runner must halt in: [Decide] (n-DAC termination (b))
    or [Halt], a decision or an abort (termination (a)). *)
type solo_goal = Decide | Halt

val solo_accepts : solo_goal -> Config.status -> bool

type solo_cache

val solo_cache : unit -> solo_cache

val solo_halts :
  ?cache:solo_cache ->
  ?substrate:Substrate.t ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  pid:int ->
  accept:(Config.status -> bool) ->
  Config.t ->
  bool
(** Do all solo runs of [pid] from this configuration halt it with a
    status satisfying [accept]? Re-steps the substrate off the graph,
    exploring every nondeterministic branch; detects solo cycles.
    {!check_dac} uses it on reduced graphs only; it is the oracle of
    {!solo_good}. *)

type solo_index

val solo_index : Graph.t -> solo_index
(** The reverse of the graph's packed steps plus every node's per-pid
    status class, each configuration read once.  Build it once per
    graph and share it across {!solo_good} passes. *)

val solo_good : solo_index -> goal:solo_goal -> int -> int -> bool
(** [solo_good idx ~goal pid] answers, for every node id, whether all
    pid-solo runs from it halt pid in a status [goal] accepts — one
    O(V + E) least-fixpoint pass over the pid-labelled steps, so nodes
    on or leading to a pid-only cycle are never good.  Equal to
    [solo_halts ~accept:(solo_accepts goal)] on the node's
    configuration when the graph is complete and holds the substrate's
    steps verbatim: built with no reduction, or with an identity group
    and no commit pruning. *)

val check_consensus :
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:Graph.reduction ->
  ?resume:Graph.suspended ->
  ?spill:Graph.spill ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  verdict
(** Agreement + validity + no-abort at every node, wait-freedom of every
    process.  [max_states] defaults to [Graph.default_max_states];
    [domains], [budget], [substrate], [reduce], [resume] and [spill]
    are forwarded to {!Graph.build}.  A sound [reduce] (see {!Canon})
    changes the explored graph but not the verdict's [ok]/[outcome];
    node ids and failure messages may differ; [spill] changes neither
    the graph nor the verdict (the liveness searches are
    segment-fault-free on an out-of-core graph).  Never raises on
    truncation: a cut-short exploration yields a partial verdict
    (safety checked on the explored prefix, liveness skipped). *)

val check_kset :
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:Graph.reduction ->
  ?resume:Graph.suspended ->
  ?spill:Graph.spill ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  k:int ->
  inputs:Value.t array ->
  unit ->
  verdict

val check_dac :
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:Graph.reduction ->
  ?resume:Graph.suspended ->
  ?spill:Graph.spill ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  verdict
(** The four n-DAC properties of Section 4, with the paper's weak
    termination: (a) p-solo runs halt p from every reachable node;
    (b) q-solo runs decide from every reachable node; nontriviality via
    exhaustive p-solo exploration from the initial configuration.  When
    the graph holds the substrate's steps verbatim (no [reduce], or an
    identity group without commit pruning) the solo properties are
    passes over its steps ({!solo_good}, and reachability over p-steps
    for nontriviality); under a symmetry quotient or commit pruning
    they re-step the substrate with {!solo_halts}.  Both engines give
    the same verdict; a p-only cycle reachable from the initial
    configuration is reported as a termination (a) failure by both. *)

(** {2 Counterexample witnesses} *)

type witness = {
  schedule : int list;
      (** pids to run in order from the initial configuration (replay
          with [Scheduler.fixed]; nondeterministic branches need a
          matching adversary) *)
  violation : string;
  config : Config.t;
}

val pp_witness : Format.formatter -> witness -> unit

(** The outcome of a witness search.  A found {!Witness} is definitive
    even when the exploration was cut short (its violating prefix was
    explored in full).  [No_witness] asserts the {e complete} reachable
    graph holds no violation; when exploration stopped early without a
    hit the search answers {!Search_truncated} instead — treating that
    as "no witness" was a false negative. *)
type witness_search =
  | Witness of witness
  | No_witness
  | Search_truncated of Supervisor.outcome

val find_safety_witness :
  ?max_states:int ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  judge:(Config.t -> string option) ->
  unit ->
  witness_search
(** The first configuration violating [judge], with the shortest
    schedule reaching it.  Always explores unreduced: witness schedules
    must replay concretely, which a symmetry-quotiented graph does not
    guarantee. *)

val consensus_witness :
  ?max_states:int ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  witness_search

val dac_witness :
  ?max_states:int ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  witness_search

(** {2 Input-family sweeps} *)

type family_stats = {
  vectors : int;  (** input vectors in the family *)
  fan_domains : int;  (** domains actually used by the fan-out *)
  total_states : int;  (** sum of [verdict.states] over checked vectors *)
  wall_s : float;
  vectors_per_sec : float;
}

val pp_family_stats : Format.formatter -> family_stats -> unit

val for_all_inputs :
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  (Value.t array -> verdict) ->
  Value.t array list ->
  verdict
(** First failing verdict over a family of input vectors, or the last
    passing one.  The vectors are one {!Supervisor.scan} across
    [domains] (default 1) domains; the verdict — including which failing
    vector wins — is identical for any domain count (the lowest failing
    index).  When [domains > 1], run the per-vector check itself with
    [~domains:1] to avoid oversubscribing cores.

    An exception escaping the per-vector check is captured and the
    vector retried ({!Supervisor.run_shard}); if it keeps failing, that
    vector gets a failing [Worker_failed] verdict ([worker] = its index)
    that competes for the lowest index like any other failure —
    completed work is never lost and nothing propagates through
    [Domain.join].  [budget] is polled before each vector; when it fires
    the sweep returns a partial verdict naming the first unchecked
    vector. *)

val for_all_inputs_timed :
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  (Value.t array -> verdict) ->
  Value.t array list ->
  verdict * family_stats
(** Same, plus wall-clock/throughput statistics for the whole sweep. *)
