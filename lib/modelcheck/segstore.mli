(** Out-of-core segment store: the configurations of cold node-id
    ranges of an exploration, spilled to disk and faulted back in on
    demand through a small cache of loaded segments.  Segments hold
    configurations only — the graph's topology stays resident in its
    packed step array, and edge events are recomputed from the
    successor relation (see {!Graph.out_edges}), so nothing else needs
    to spill.

    A segment covers a half-open id range [lo, hi) of the expanded
    prefix; segments are written in increasing id order and never
    overlap, so lookup is a binary search.  Files carry the same magic
    + per-section checksum discipline as checkpoints (see {!Segio});
    payloads are the structural {!Mirror} forms, and fault-in
    re-interns every value through the [Value] smart constructors, so
    the id-never-orders invariant survives a round trip through disk
    exactly as it does for checkpoints.

    Spilled segments are scratch, not durable state: {!create} clears
    any stale [seg-*.seg] files in the directory (a resumed run
    re-spills deterministically from its checkpoint), and callers
    remove the directory with {!remove_all} once a run completes. *)

open Lbsa_runtime

(** Framed section IO shared with the graph and fuzz checkpoints: each
    section is an 8-byte tag, a big-endian payload length, a big-endian
    FNV-1a payload checksum, then the payload.  [read_section] raises
    [Failure] on any framing or checksum defect and returns [None] at a
    clean end of file. *)
module Segio : sig
  val write_section : out_channel -> tag:string -> string -> unit
  (** [tag] is at most 8 bytes; it is padded to exactly 8 on disk. *)

  val write_section_sink : (string -> unit) -> tag:string -> string -> unit
  (** Same framing through an arbitrary sink — used to stream sections
      into a {!Lbsa_util.Rio} atomic-commit writer. *)

  val read_section : in_channel -> (string * string) option
  (** Returns the trimmed tag and the payload. *)
end

exception Corrupt of string
(** A segment failed validation on fault-in (magic, framing, checksum,
    undecodable payload, or repeated I/O errors).  Spilled segments are
    a cache of data already evicted from RAM, so the store refuses with
    this typed error — callers surface it as a clean partial outcome —
    instead of crashing in [Marshal] or returning wrong data. *)

type t

val create : dir:string -> t
(** Creates [dir] if needed and deletes any stale [seg-*.seg] files in
    it.  Raises [Failure] if [dir] exists and is not a directory. *)

val dir : t -> string

val write_segment :
  t -> lo:int -> hi:int -> configs:Mirror.pconfig array -> unit
(** Spills the configurations of ids [lo, hi), in id order.  Ranges
    must extend the store: [lo] equals the previous segment's [hi] (or
    0). *)

val node : t -> int -> Config.t
(** [node t id] faults in the segment covering [id] (if not cached) and
    returns its re-interned configuration.  Raises [Invalid_argument]
    if no segment covers [id]; raises {!Corrupt} (after one backed-off
    retry for device-level errors) if the segment fails validation. *)

val spilled_upto : t -> int
(** One past the highest spilled node id (0 when empty). *)

val n_segments : t -> int

val spilled_bytes : t -> int
(** Total bytes written across live segment files. *)

val faults : t -> int
(** Segment loads from disk (cache misses), cumulative. *)

val corrupt_count : t -> int
(** Fault-ins refused as {!Corrupt}, cumulative. *)

val remove_all : t -> unit
(** Deletes every segment file this store wrote and removes the
    directory if that leaves it empty.  The store is unusable after. *)

val clean_dir : dir:string -> unit
(** Path-based cleanup for callers that no longer hold the store:
    deletes the [seg-*.seg] files in [dir] (nothing else) and removes
    the directory if that leaves it empty.  A no-op on a missing
    [dir]. *)
