(** The event recorder: a fixed-capacity event ring of unboxed int rows
    with an allocation-free record fast path.

    It is the engines' one event seam ([?events] on every producer), cheap
    enough to leave on everywhere.  Events live in one flat int array, six
    words per event (kind tag, slot, source id, three payload words, laid
    out as
    {!Event.tag} and {!Event.write_payload} fix them); the strings an event
    can carry — sources, reconfig knobs, health rules and reasons — go
    through an interning table once, so the steady-state [record] path
    allocates nothing.  When the ring is full, the oldest events are
    overwritten and counted; {!dump} and {!iter_from} declare the loss with
    a [Truncated] metadata marker, so the forensics layer can tell a
    deliberately bounded trace from a corrupted one.  Events are boxed into
    {!Event.t} only when read out.

    A ring is single-domain: the engine that records into it must be the
    one that reads it (the serve daemon reads from the consumer domain
    only). *)

type t

val create : ?scope:string -> cap:int -> unit -> t
(** A ring holding exactly the last [cap] events.  [scope], when
    non-empty, qualifies every interned source as ["scope/who"] — used to
    qualify instance names with their sweep-point context.
    @raise Invalid_argument when [cap <= 0]. *)

val scope : t -> string
val capacity : t -> int

val length : t -> int
(** Events currently held (≤ capacity). *)

val total : t -> int
(** Events ever recorded. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around ([total - length]). *)

(** {2 Interning}

    Ids are dense, stable for the life of the ring ({!clear} keeps them),
    and private to it.  Engines intern their source name once at creation;
    the rare string-carrying events ([reconfig], [health]) intern their
    payloads on the slow path. *)

val intern : t -> string -> int
(** The id for source [who], scope-qualified (ring scope ["x=8"] + [who]
    ["LWD"] intern as ["x=8/LWD"]). *)

val name_of : t -> int -> string
(** @raise Invalid_argument on an id this ring never issued. *)

(** {2 Recording}

    One function per {!Event.kind}; every argument is an immediate int, so
    a call allocates nothing.  [src] is an id from {!intern}. *)

val arrival : t -> slot:int -> src:int -> dest:int -> unit
val accept : t -> slot:int -> src:int -> dest:int -> unit
val push_out : t -> slot:int -> src:int -> victim:int -> dest:int -> lost:int -> unit
val drop : t -> slot:int -> src:int -> dest:int -> value:int -> unit
val transmit : t -> slot:int -> src:int -> dest:int -> value:int -> latency:int -> unit
val transmit_bulk : t -> slot:int -> src:int -> dest:int -> count:int -> value:int -> unit
val flush : t -> slot:int -> src:int -> count:int -> unit
val slot_end : t -> slot:int -> src:int -> occupancy:int -> unit

val reconfig : t -> slot:int -> src:int -> what:string -> target:string -> unit
(** Interns [what]/[target]; allocation-free once both are known. *)

val health :
  t -> slot:int -> src:int -> rule:string -> tripped:bool -> reason:string -> unit

(** {2 Reading out}

    Events are numbered in record order from 0 (since the last {!clear});
    {!total} is the number the next event will get, so a reader that
    remembers it can later read exactly what was recorded since. *)

val iter_from : from:int -> (Event.t -> unit) -> t -> unit
(** Events numbered [from] onwards, oldest first, boxing each on the way
    out.  When some of them were already overwritten, [f] first gets a
    [Truncated {evicted}] marker counting them, whose [slot] is the oldest
    surviving slot (0 when none survives) and whose [src] is the ring's
    scope.  Records nothing and clears nothing.
    @raise Invalid_argument when [from < 0]. *)

val iter : (Event.t -> unit) -> t -> unit
(** The held events, oldest first, with no marker. *)

val events : t -> Event.t list

val dump : t -> Event.t list
(** [iter_from ~from:0] as a list: {!events}, preceded — iff the ring has
    evicted anything — by the [Truncated] marker, so replay knows which
    slots are unverifiable. *)

val clear : t -> unit
(** Empty the ring and its eviction accounting, restarting the event
    numbering at 0 (interned ids are kept — they stay valid across
    clears). *)
