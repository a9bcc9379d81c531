(** Shared-memory switch state for the heterogeneous-processing model.

    Holds [n] FIFO work queues drawing on one buffer of [B] packet slots.
    The switch performs mechanics only (admission, push-out, the transmission
    phase); *which* packets are admitted is the policy's job.  All mutating
    operations validate their preconditions and raise [Invalid_argument] on
    misuse, so an engine bug cannot silently corrupt an experiment.

    Each packet also carries a value in [1 .. max_value] (see
    {!Proc_config}): the combined work + value model runs on this switch,
    and the processing model is the case [max_value = 1].

    The state is a struct-of-arrays slab of unboxed int columns (residual
    work, value, arrival slot, packet id) with a free-list and one int ring
    of slot ids per port.  A warmed switch runs the whole
    accept/push-out/transmit cycle without allocating; tests and analyses
    read queue contents through {!iter_port}. *)

type t

type view = {
  view_works : int array;  (** per-port required work (configuration copy) *)
  view_qlen : int array;  (** live per-port packet counts *)
  view_qwork : int array;  (** live per-port total residual work *)
  view_qvalue : int array;  (** live per-port total value *)
}
(** Read-only aliases of the switch's per-port aggregate columns.  The
    push-out policies select their victims in one pass over these arrays.
    The arrays are the switch's own live state: never write through them. *)

val create : Proc_config.t -> t

val config : t -> Proc_config.t
(** The creation-time configuration.  Its [buffer] field is the {e initial}
    B; after {!set_buffer} the live bound is {!buffer}, not
    [(config t).buffer]. *)

val n : t -> int
val buffer : t -> int
val speedup : t -> int

val set_buffer : t -> int -> unit
(** Live-resize the shared buffer bound B.  Admission ([is_full],
    [free_space], [accept]) immediately honours the new bound; buffered
    packets are never dropped, which is why shrinking below the current
    occupancy is refused — the buffer drains down to the new bound through
    normal transmissions.  A grow extends the slot slab (existing slot ids
    stay valid); the slab never shrinks.
    @raise Invalid_argument if the new bound is [< 1] or smaller than the
    current occupancy. *)

val now : t -> int
(** Current slot number (starts at 0; advanced by [advance_slot]). *)

val advance_slot : t -> unit

val occupancy : t -> int
val free_space : t -> int
val is_full : t -> bool

val queue_length : t -> int -> int
val queue_work : t -> int -> int
(** Total residual work [W_i] of queue [i]. *)

val queue_value : t -> int -> int
(** Total value [V_i] of queue [i]. *)

val tail_value : t -> int -> int
(** Value of queue [i]'s tail packet, the one {!push_out} would evict; [0]
    when the queue is empty (values are [>= 1]). *)

val port_work : t -> int -> int
(** Required work per packet of port [i] (from the configuration). *)

val total_occupied_work : t -> int
(** Sum of [W_i] over all queues.  Maintained incrementally: O(1). *)

val view : t -> view
(** The live per-port aggregate columns: one record, built at {!create}, so
    reading it allocates nothing. *)

val accept : t -> dest:int -> value:int -> unit
(** Admit a fresh packet of the given value to [dest]'s queue; assigns the
    next packet id.
    @raise Invalid_argument if the buffer is full or the value is outside
    [1 .. max_value]. *)

val push_out : t -> victim:int -> int
(** Evict the tail packet of queue [victim] (freeing one slot) and return
    its value.
    @raise Invalid_argument if that queue is empty. *)

val transmit_phase :
  t -> on_transmit:(dest:int -> value:int -> arrival:int -> unit) -> int
(** One transmission phase: every non-empty queue receives [speedup]
    processing cycles (head-of-line, run-to-completion), ports in index
    order.  Each transmitted packet is reported by its port, value and
    admission slot.  Returns the number of packets transmitted.

    Exception-safe: each transmitted packet is fully accounted (occupancy,
    work and value aggregates) {e before} [on_transmit] sees it, so a raising
    hook propagates out of a switch that still satisfies
    {!check_invariants}. *)

val serve_port :
  t -> int -> on_transmit:(dest:int -> value:int -> arrival:int -> unit) -> int
(** Give a single port its [speedup] cycles (a transmission phase restricted
    to one queue).  Used by analyses that need the paper's port-by-port
    event ordering.  Same contract as {!transmit_phase}. *)

val iter_port :
  t -> int -> (id:int -> residual:int -> value:int -> arrival:int -> unit) ->
  unit
(** Read-only walk of queue [i] in FIFO order (head of line first): each
    packet's id, remaining work, value and admission slot.  The callback
    must not mutate the switch. *)

val flush : t -> int
(** Discard all buffered packets (the simulator's periodic flushout);
    returns how many were discarded.
    @raise Invalid_argument if the occupancy count disagrees with the queue
    contents — state corruption that must not be ignored (a real check, not
    an [assert] stripped under [-noassert]). *)

val check_invariants : t -> unit
(** Assert internal consistency: occupancy = sum of queue lengths <= B,
    cached work and value totals match queue contents, values in range,
    slab/free-list disjointness and per-slot residual bounds.  Test hook. *)
