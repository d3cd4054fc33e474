(** The structural mirror of configurations: a purely
    structural ADT with no intern ids and no sharing, safe to [Marshal]
    across process boundaries.

    The hash-consed value core makes direct marshalling of [Config.t]
    unsound twice over: intern ids are allocation-order-dependent, and
    pointer identity (which [Value.equal] relies on) does not survive
    [Marshal].  Everything that persists configurations — checkpoints,
    spilled out-of-core segments — therefore freezes them into this
    mirror and re-interns through the [Value] smart constructors on
    thaw, so the loaded values are physically canonical in the loading
    process whatever that process interned first.  (The id-never-orders
    invariant of the value core is exactly what makes the detour safe:
    nothing in a graph depends on the ids a run happened to assign.)

    Only configurations cross the boundary: graph topology persists as
    packed int arrays, and edge events are never stored — {!Graph}
    recomputes them from the successor relation when asked.  This
    module knows nothing about [Graph], so both {!Checkpoint} and
    {!Segstore} can share it without a dependency cycle. *)

open Lbsa_runtime

type pvalue =
  | PUnit
  | PBool of bool
  | PInt of int
  | PSym of string
  | PBot
  | PNil
  | PDone
  | PPair of pvalue * pvalue
  | PList of pvalue list

type pstatus = PRunning | PDecided of pvalue | PAborted | PCrashed

type pconfig = {
  plocals : pvalue array;
  pobjects : pvalue array;
  pstatus : pstatus array;
}

val freeze_value : Lbsa_spec.Value.t -> pvalue
val thaw_value : pvalue -> Lbsa_spec.Value.t

val freeze_config : Config.t -> pconfig
val thaw_config : pconfig -> Config.t
