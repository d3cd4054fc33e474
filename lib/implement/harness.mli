(** Implementation-testing harness: drive concurrent clients through an
    implementation's operation programs, record the target-level
    concurrent history, and check linearizability against the target
    specification. *)

open Lbsa_spec
open Lbsa_runtime
open Lbsa_linearizability

type nondet =
  | First
  | Random of Lbsa_util.Prng.t

type run = {
  history : Chistory.t;
  pending : Checker.pending list;
      (** target calls invoked but never answered (the schedule ended
          mid-operation, e.g. under a crash plan) *)
  base_final : Value.t array;
  steps : int;
}

exception Stuck of string

val run_clients :
  ?nondet:nondet ->
  ?max_steps:int ->
  impl:Implementation.t ->
  workloads:Op.t list array ->
  scheduler:Scheduler.t ->
  unit ->
  run

val check :
  ?session:Checker.session ->
  ?nondet:nondet ->
  ?max_steps:int ->
  impl:Implementation.t ->
  workloads:Op.t list array ->
  scheduler:Scheduler.t ->
  unit ->
  run * Checker.outcome
(** [session] must be a [Checker.session] for [impl.target]; passing one
    reuses its interning tables across calls (the outcome does not depend
    on it).  Callers checking on several domains should create one per
    domain. *)

val exhaustive :
  ?max_steps:int ->
  impl:Implementation.t ->
  workloads:Op.t list array ->
  unit ->
  (int, Chistory.t) result
(** Check every interleaving of the client programs (and every object
    branch) for a tiny workload; [Ok n] is the number of complete
    interleavings checked. *)
