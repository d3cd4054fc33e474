(** Durable checkpoints for long explorations: freeze a suspended
    {!Graph.build} (frontier, dedup contents, packed step prefix) to a
    purely structural form, write it to disk, and thaw it back for
    [Graph.build ~resume].  Edge events are never stored; the graph
    recomputes them on demand (format version 5).

    The structural detour exists because of the hash-consed value core:
    intern ids are allocation-order-dependent and pointer identity does
    not survive [Marshal].  A checkpoint therefore stores a mirror ADT
    with no ids and no sharing, and [thaw] re-interns every value
    through the [Value] smart constructors — the loaded configurations
    are physically canonical in the loading process, whatever junk that
    process interned first.  (The id-never-orders invariant of the value
    core is exactly what makes this safe: nothing in the graph depends
    on the ids a run happened to assign.) *)

type t

exception Version_mismatch of string
(** The file is a checkpoint, but from another format version.  Old
    checkpoints are refused, never migrated: the frozen exploration is
    cheaper to redo than a cross-version misread is to debug.  CLIs
    surface this as exit code 2 (the partial-outcome code, like a
    reduce-mode mismatch): the file is coherent, only this build cannot
    use it. *)

exception Corrupt of string
(** The file carries the current checkpoint magic but its body fails
    validation — truncation, a framing or checksum defect, a chunk out
    of order, an undecodable section — or keeps hitting I/O errors.  A
    corrupt checkpoint is a damaged scratch artifact: CLIs refuse it
    with exit code 2 (re-run the exploration), never resume from it,
    and never crash in [Marshal] on it. *)

val label : t -> string
(** Free-form run parameters recorded at freeze time (protocol, sizes,
    max_states…); resuming code should compare it against the current
    invocation and refuse mismatches. *)

val reduction : t -> string
(** The reduction mode name ("none" / "sym" / "sym+sleep") the frozen
    exploration ran under.  Resuming under a different mode would
    silently explore a different graph; [Graph.build ~resume] rejects
    the mismatch, and CLIs should refuse it up front. *)

val substrate : t -> string
(** The execution substrate name ("shm" / "mp" / "mp+byz:f") the frozen
    exploration ran under — recorded since format version 4.  Same
    contract as {!reduction}: a resume under a different substrate is a
    different graph, and [Graph.build ~resume] rejects the mismatch. *)

val freeze : label:string -> Graph.suspended -> t
val thaw : t -> Graph.suspended

val save : file:string -> t -> unit
(** Atomic, durable write through {!Lbsa_util.Rio.with_atomic_file}:
    versioned magic header, then framed checksummed sections (shared
    with {!Segstore.Segio}) — one CKMETA section and the node/step
    arrays streamed in bounded chunks — committed tmp + fsync + rename
    + directory fsync.  A crash at any point leaves either the previous
    [file] or the new one, never a torn mix.  Overwrites [file]. *)

val load : file:string -> t
(** Raises [Failure] on a missing or non-checkpoint file,
    {!Version_mismatch} on a checkpoint from another format version
    (older versions are refused, never migrated), and {!Corrupt} on a
    current-version checkpoint whose body fails validation. *)
