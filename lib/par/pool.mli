(** A fixed-size pool of OCaml 5 domains with an ordered fork-join API.

    The pool owns [jobs] worker domains that drain a shared work queue.  The
    combinators ([map], [mapi], [map_reduce]) submit one task per input
    element, block the caller until the whole batch has completed, and return
    the results in submission order — so a parallel map is observationally
    identical to [List.map] whenever the tasks are independent, regardless of
    how the scheduler interleaves them.

    Exceptions raised by tasks never kill a worker: they are captured with
    their backtrace and re-raised on the caller once the batch has drained
    (the exception of the earliest-submitted failing task wins, so failure
    attribution is deterministic too).

    Tasks must not themselves call a combinator of the same pool: all workers
    could then be blocked waiting on batches only they could execute.  Create
    a separate pool (or use an inline [jobs:0] pool) for nested parallelism.
*)

type t

type timing = {
  tasks : int;  (** tasks completed *)
  busy_wall : float;  (** summed task run time, seconds *)
  max_task_wall : float;
  total_wait : float;
      (** summed queue wait (submission to start); 0 for the inline pool *)
  max_wait : float;
  domain_busy : float array;
      (** per-worker busy time, one slot per domain (slot 0 for the inline
          pool) — an imbalance diagnostic *)
}
(** Aggregate task timing over the pool's lifetime.  Wall-clock derived and
    schedule-dependent by nature: report it on stderr or behind strippable
    [[time]] prefixes, never inside deterministic outputs. *)

val timing : t -> timing
(** Snapshot of the timing accumulators (thread-safe). *)

val pp_timing : Format.formatter -> timing -> unit
(** One line: task count, busy/wait totals with mean and max, per-domain
    busy seconds. *)

val create : ?on_tick:(int -> unit) -> jobs:int -> unit -> t
(** A pool with [jobs] worker domains.

    [jobs = 0] is the inline pool: no domains are spawned and the
    combinators run every task sequentially on the caller — useful as a
    zero-overhead fallback and for deterministic debugging.

    [on_tick] is invoked after every completed task with the pool-lifetime
    completion count (see {!completed}); with worker domains it may be called
    concurrently from any of them, so it must be thread-safe (an atomic
    progress bar update, a write to stderr).

    @raise Invalid_argument if [jobs < 0]. *)

val jobs : t -> int
(** Number of worker domains (0 for the inline pool). *)

val completed : t -> int
(** Total tasks completed over the pool's lifetime (atomic counter). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs] on the pool and
    returns the results in the order of [xs].  Blocks until done.
    @raise Invalid_argument if the pool has been shut down. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map} with the submission index (position in [xs]) passed first. *)

val map_reduce :
  t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** [map_reduce pool ~map ~reduce ~init xs] maps on the pool, then folds the
    results left-to-right in submission order on the caller: the result
    equals [List.fold_left reduce init (List.map map xs)] exactly, even for
    non-commutative [reduce]. *)

val shutdown : t -> unit
(** Graceful shutdown: lets workers drain any queued tasks, then joins every
    domain.  Idempotent.  Subsequent combinator calls raise
    [Invalid_argument]. *)

val with_pool : ?on_tick:(int -> unit) -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down on all
    exits. *)

val default_jobs : unit -> int
(** The [SMBM_JOBS] environment variable if set to a positive integer,
    otherwise (unset or 0) [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [SMBM_JOBS] is set to anything else — a
    malformed or negative value is an input error, not a request for
    every core. *)
