(** Fuzz targets: spec-level (every registry object, with an
    [Obj_spec]-aware operation generator) and implementation-level
    (every construction in lib/implement, with a workload generator
    respecting its interface contract). *)

open Lbsa_spec
open Lbsa_implement

type spec_target = {
  desc : string;  (** [Registry.of_string] syntax; the reproduction handle *)
  spec : Obj_spec.t;
  gen_op : pid:int -> Lbsa_util.Prng.t -> Op.t;
  procs : int;  (** natural client count for this instantiation *)
}

val spec_target : string -> spec_target
(** Registry object syntax, plus [mpnet:<n>:<t>] — the mp substrate's
    network object ({!Lbsa_runtime.Substrate.network_spec}) for [n]
    receivers over a [t]-symbol alphabet, fuzzing sends, guarded
    deliveries, timeouts and delays.  Raises [Invalid_argument] on
    unknown syntax, non-integer sizes included. *)

val all_specs : unit -> spec_target list
(** One concrete instantiation per {!Lbsa_objects.Registry.known} row; a
    test pins this list against the registry so new objects cannot dodge
    the fuzzer. *)

val spec_workloads :
  spec_target -> procs:int -> ops_per_proc:int -> Lbsa_util.Prng.t ->
  Op.t list array

type impl_target = {
  idesc : string;
  impl : Implementation.t;
  iprocs : int;  (** client count fixed by the construction *)
  gen_workloads : ops_per_proc:int -> Lbsa_util.Prng.t -> Op.t list array;
}

val impl_target : string -> impl_target
(** Grammar: [snapshot:<n>], [naive-snapshot:<n>], [pacnm:<n>:<m>],
    [oprime:<n>:<K>], [universal:<n>], [pac-facet:<n>:<m>],
    [cons-facet:<n>:<m>], [mutant-pac:<n>], [identity:<object>].
    Raises [Invalid_argument] on unknown syntax, non-integer sizes
    included, and on sizes the construction refuses. *)

val fixed : impl:Implementation.t -> Op.t list array -> impl_target
(** A target whose generator always returns the given workloads: fixed
    client programs under the fuzzer's random schedules and object
    adversaries.  Its [idesc] is [impl.name]. *)

val all_impls : unit -> impl_target list
(** Every honest construction in lib/implement; the known-bad fixtures
    ([naive-snapshot], [mutant-pac]) are excluded. *)
