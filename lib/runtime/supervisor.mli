(** Resilient-verification supervision: wall-clock budgets, cooperative
    cancellation, domain-worker fault isolation with bounded-backoff
    retry, the one supervised parallel scan every fan-out shares, a
    structured outcome taxonomy shared by every pipeline stage,
    and a deterministic chaos mode that injects artificial worker
    failures to exercise the supervisor itself.

    Everything here preserves the pipeline's determinism discipline: a
    retried shard recomputes a pure function into the same slots, and
    chaos failures are a pure function of (seed, shard key), so
    verdicts — including which failure wins a {!scan}'s CAS-min — are
    identical for any domain count, with or without chaos. *)

(** {2 Cancellation tokens} *)

type token
(** A cooperative cancellation flag, safe to share across domains.
    Workers never observe it directly; budgets poll it at safe points
    (level boundaries, per input vector, per fuzz trial, per harness
    run). *)

val token : unit -> token
val cancel : token -> unit
val cancelled : token -> bool

val install_sigint : token -> unit
(** Route SIGINT to [cancel]: the first ^C requests a graceful stop (the
    pipeline winds down at its next safe point and can write a
    checkpoint); a second ^C exits immediately with status 130. *)

(** {2 Outcomes} *)

(** How a supervised stage ended.  Everything except [Done] is partial:
    the work completed so far is valid, but the full question was not
    decided. *)
type outcome =
  | Done  (** ran to completion; the verdict is definitive *)
  | Truncated  (** a state/trial quota was hit *)
  | Deadline  (** the wall-clock deadline expired *)
  | Cancelled  (** the cancellation token fired (e.g. SIGINT) *)
  | Worker_failed of { worker : int; exn : string; attempts : int }
      (** a supervised shard kept failing after bounded retries.
          [worker] names the work, not the domain that ran it: the
          lowest failing index of a {!scan} (a frontier index for the
          explorer, a vector index for the input-family sweep, a trial
          index for the fuzzer), so it is the same for every domain
          count. *)

val is_partial : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val exit_code : ok:bool -> outcome -> int
(** The CLI-wide exit-code policy: 0 = clean pass, 1 = definitive
    failure (unsolvable, counterexample), 2 = partial outcome
    (truncated / deadline / cancelled / worker failure).  Usage errors
    are 3, by convention, at the CLI layer. *)

(** {2 Budgets} *)

module Budget : sig
  type t
  (** A wall-clock deadline and/or a cancellation token.  Quotas on
      states and trials stay where they live today ([max_states],
      [trials]) — a budget adds the time/cancellation axes that no
      counter can express. *)

  val unlimited : t

  val make : ?deadline_s:float -> ?token:token -> unit -> t
  (** [deadline_s] is relative to the call ([0.] is already expired —
      handy for forcing a checkpoint at the first safe point). *)

  val stop : t -> outcome option
  (** [None] = keep going; [Some Cancelled] or [Some Deadline]
      otherwise.  Cancellation wins over the deadline.  Cheap enough to
      poll per trial / per frontier level. *)
end

(** {2 Deterministic chaos} *)

module Chaos : sig
  exception Injected of int
  (** Raised inside a shard body on an injected failure; the payload is
      the shard key: a {!scan}'s block number, or a daemon worker id. *)

  val arm : seed:int -> ?rate_percent:int -> unit -> unit
  (** Globally arm chaos: every {!run_shard} whose (seed, shard-key)
      substream draws below [rate_percent] (default 50) fails on its
      FIRST attempt only; the retry always succeeds.  The plan is a pure
      function of the seed and the key — for a {!scan}, the block
      number, never the domain that claimed it — so armed runs produce
      results identical to unarmed ones at every domain count; that
      equality is the self-test. *)

  val disarm : unit -> unit
  val armed : unit -> bool
end

val run_shard :
  ?attempts:int ->
  ?backoff_s:float ->
  worker:int ->
  (unit -> 'a) ->
  ('a, string * int) result
(** Run one shard body, keyed [worker] for {!Chaos}, with fault
    isolation: any exception is caught
    and the body retried up to [attempts] times (default 3) with
    exponential backoff starting at [backoff_s] (default 1ms).
    [Error (exn, attempts)] after the last attempt.  The body must be
    pure or idempotent (re-writing the same disjoint slots), so a retry
    cannot change the result — that is what keeps verdicts independent
    of the domain count even when workers fail. *)

(** {2 Supervised parallel scan} *)

val default_domains : unit -> int
(** The machine's recommended domain count, clamped to [1, 8]; probed
    once per process. *)

type 'a scan = {
  first : (int * ('a, string * int) result) option;
      (** the lowest index whose body returned [Some a] ([Ok a]) or whose
          block exhausted its {!run_shard} retries ([Error (exn,
          attempts)], at the index that raised) *)
  completed : int;
      (** indices [start, completed) all returned [None]: the contiguous
          prefix known to have run.  Equals [i] when [first] is at [i],
          and [stop] on a clean full scan. *)
  stopped : outcome option;  (** the budget's outcome, if it fired *)
  domains : int;  (** domains actually used *)
}

val scan :
  ?domains:int ->
  ?budget:Budget.t ->
  ?block:int ->
  start:int ->
  stop:int ->
  (int -> 'a option) ->
  'a scan
(** [scan ~start ~stop body] runs [body i] for indices [start, stop)
    across [domains] (default {!default_domains}) domains — [domains - 1]
    spawned, the caller's inline — until some [body i] returns [Some].
    Workers claim [block] (default 1) consecutive indices at a time from
    one atomic cursor and agree on the lowest settled index by CAS-min:
    a block starting at or above it is never claimed, and a block below
    it always runs up to it, so [first] is identical for every domain
    count whenever [body] is a pure function of [i].

    Each block runs under {!run_shard} with its block number (counted
    from [start]) as the shard key, so a raising [body] — or an injected
    {!Chaos} fault — retries the block from its first index; [body] must
    therefore be idempotent.  [budget] is polled before every index; once
    it fires, workers stop claiming and [stopped] carries its outcome. *)
