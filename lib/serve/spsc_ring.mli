(** Single-producer / single-consumer ring of reusable
    {!Smbm_core.Arrival_batch.t} slots.

    The ring is the bounded hand-off between the ingest domain (which
    generates or reads one slot's arrivals per batch) and the engine domain
    (which steps the switch).  Capacity is fixed at creation: ring occupancy
    can never grow without bound, which makes the daemon's memory footprint
    a constant.  Every slot of the ring owns one [Arrival_batch] that is
    reused forever — steady-state production and consumption allocate
    nothing.

    Exactly one domain may call the producer operations ({!produce},
    {!close}) and exactly one the consumer operations ({!consume},
    {!abort}); publication is through two monotone atomic counters, so the
    batches themselves need no locks (the producer's writes to a slot
    happen-before the consumer's reads via the tail publication, and
    vice-versa for reuse via the head publication).

    {2 Backpressure}

    When the ring is full, {!produce} applies the chosen policy:
    - [`Block]: spin (with [Domain.cpu_relax], degrading to short sleeps)
      until the consumer frees a slot — ingest is paced by the engine;
    - [`Shed]: generate the slot into a private scratch batch and discard
      it, accounting the shed slot and its packets — the engine never sees
      the traffic, but the loss is measured, not silent.  The workload's
      RNG advances identically either way, so a shed stream is a strict
      subsequence of the blocked one.

    On an empty ring the consumer parks instead: it blocks, taking no CPU,
    until the producer has filled half the ring or publishes after the
    consumer has waited {!wake_window_ns} ({!wake}), or closes the ring. *)

open Smbm_core

type t

val create : capacity:int -> unit -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val length : t -> int
(** Snapshot of the current occupancy (racy but monotonic per endpoint). *)

(* ----- producer side ----- *)

type push_result =
  | Pushed  (** the batch is in the ring *)
  | Shed  (** ring full under [`Shed]: generated, accounted, discarded *)
  | Aborted  (** the consumer called {!abort}; stop producing *)

val produce :
  t ->
  ?on_block:(int -> unit) ->
  policy:[ `Block | `Shed ] ->
  fill:(Arrival_batch.t -> unit) ->
  unit ->
  push_result
(** Claim the next slot, [fill] its (cleared) batch, publish it.  [fill]
    runs on the producer domain; it must not touch the ring.

    [on_block] is called (on the producer domain) with the nanoseconds
    the call spent waiting for space, read from the monotonic {!Clock},
    only when it actually waited — i.e. only under [`Block] with a full
    ring; shed mode never blocks and reports nothing.  The stall clock is
    read only when [on_block] is supplied.

    A call allocates nothing: pass a prebuilt [?on_block] option, since
    [~on_block:f] wraps [f] in a fresh [Some] at every call. *)

val close : t -> unit
(** Producer is done: after the ring drains, {!consume} returns [Drained].
    Idempotent. *)

(* ----- consumer side ----- *)

type pop_result =
  | Consumed  (** [f] ran on one batch *)
  | Drained  (** producer closed and every published batch was consumed *)
  | Stopped  (** the [stop] predicate fired while waiting *)

val consume :
  t -> stop:(unit -> bool) -> f:(Arrival_batch.t -> unit) -> pop_result
(** Wait for a published batch, run [f] on it, release the slot for reuse.
    [stop] is polled before the consumer parks on an empty ring and each
    time it wakes (not between [f] and the release).  A parked consumer
    wakes on a publication that meets {!wake} or on {!close}, so a [stop]
    set from another domain takes effect at the next of those.  A call
    allocates nothing beyond what [f] and [stop] do. *)

val abort : t -> unit
(** Consumer gives up: a blocked producer unblocks and {!produce} returns
    [Aborted] from then on.  Idempotent. *)

(* ----- waiting ----- *)

val wake_window_ns : int
(** 200 µs: a consumer parked longer than this is woken by the next
    publication, however few batches the ring then holds. *)

val wake : capacity:int -> ready:int -> parked_ns:int -> bool
(** The wake-up rule: a publication that leaves [ready] batches in the
    ring wakes a consumer parked for [parked_ns] when
    [2 * ready >= capacity] or [parked_ns >= wake_window_ns].  A parked
    consumer is signalled once, by the first publication that meets it. *)

(* ----- accounting ----- *)

val shed_slots : t -> int
val shed_packets : t -> int

val max_occupancy : t -> int
(** High-water mark of ring occupancy observed at publication time. *)
