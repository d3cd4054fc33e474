(** Open-addressing hash table from configurations to node ids: the
    dedup structure of the state-space explorer.  Keys are compared by
    stored full-tree hash first, then [Config.equal], so lookups in a
    graph of hundreds of thousands of states stay O(1) instead of the
    O(log n) structural compares of a [Map.Make(Config)].

    For out-of-core builds, {!freeze_below} evicts the configurations of
    long-expanded (cold) entries while keeping their hash and id
    resident, so the table pins no more RAM than the resident suffix of
    the graph needs.  A probe that lands on a frozen slot with a
    matching stored hash faults the configuration back through the
    [resolve] callback (backed by the {!Segstore}) for the one
    [Config.equal] it needs — full-hash collisions are the only other
    reason to fault, so cold entries cost a disk touch only on genuine
    re-encounters. *)

open Lbsa_runtime

type t

type probe_stats = {
  probes : int;  (** total slot inspections across all lookups *)
  hash_skips : int;
      (** occupied slots dismissed on stored-hash mismatch alone — each
          one a structural [Config.equal] the cached hashes avoided *)
  equal_confirms : int;
      (** slots where [Config.equal] actually ran, frozen-slot resolves
          included (see {!faults} for those alone) *)
}

val probe_stats : t -> probe_stats
(** Probe-traffic counters since {!create}.  Reinsertions during
    internal growth are not counted; the numbers reflect lookups only. *)

val create : ?resolve:(int -> Config.t) -> int -> t
(** [create ~resolve n] sizes the table for about [n] expected entries
    (it grows as needed regardless).  [resolve id] must return the
    configuration that was inserted with id [id]; it is only called
    after {!freeze_below} has frozen entries, so callers that never
    freeze can omit it. *)

val length : t -> int
(** Entries, resident and frozen. *)

val find_or_add :
  t -> Config.t -> hash:int -> if_absent:(Config.t -> int) -> int
(** [find_or_add t c ~hash ~if_absent] returns the id bound to [c],
    inserting [if_absent c] first when [c] is new.  [hash] is passed in
    so callers can hash once per candidate (and with whatever consistent
    hash they choose); [if_absent] receives the key so one registration
    function can serve the whole build without per-lookup closures.  It
    is not called when [c] is already present; detect a fresh insert by
    comparing {!length} before and after. *)

val find_opt : t -> Config.t -> hash:int -> int option
(** [hash] must be the same value the caller would pass to
    {!find_or_add} for this key — the table stores whatever hash the
    caller uses, so one build must hash consistently throughout. *)

val freeze_below : t -> id_limit:int -> int
(** Drops the resident configuration of every entry with id below
    [id_limit]; such entries keep their hash and id and answer probes
    through [resolve].  Returns the number of entries newly frozen.
    Requires [resolve] to have been supplied. *)

val frozen : t -> int
(** Entries whose configuration lives on disk. *)

val faults : t -> int
(** Frozen-slot resolves. *)
