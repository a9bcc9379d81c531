(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the simulator draws from an explicit [Rng.t]
    so that experiments are reproducible from a single seed and independent
    streams can be split off for independent traffic sources.  The state is
    one unboxed 64-bit word: no draw allocates. *)

type t

val create : seed:int -> t
(** A fresh generator.  Equal seeds yield equal streams. *)

val split : t -> t
(** A statistically independent generator derived from [t]'s stream.
    Advances [t]. *)

val copy : t -> t
(** A generator with identical future output to [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound).  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive.  Requires [lo <= hi]. *)

val float : t -> float
(** Uniform on [0, 1). *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [true] with probability [p] (clamped to [0, 1]): one draw [u], true
    exactly when [float] would have returned a value below [p], tested as
    the 53-bit integer comparison [u < ceil (p * 2^53)].  A [p <= 0] or
    [p >= 1] draws nothing.
    @raise Invalid_argument if [p] is NaN. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given rate (mean [1 /. rate]).
    [rate] must be positive. *)

val poisson : t -> lambda:float -> int
(** Poisson variate.  Uses Knuth's product method for small means and a
    normal approximation for large ones.  [lambda] must be non-negative. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success, [p] in (0, 1]. *)

val pareto_int : t -> alpha:float -> max:int -> int
(** Heavy-tailed integer on [1, max]: [floor(U^(-1/alpha))] clamped, so
    [P(X >= x) = x^(-alpha)] below the cap.  [alpha] must be positive,
    [max >= 1]. *)

val pareto_int_mean : alpha:float -> max:int -> float
(** Exact mean of {!pareto_int}: [sum_(x=1..max) x^(-alpha)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

type rng = t

(** The fused per-slot loop of a bank of Markov-modulated on-off sources.

    A bank is a column of SplitMix64 words, two per source (its process
    stream and its label stream), an on/off column, and one shared
    description of the transitions, the on-state emission and the
    labelling.  {!fill} steps every source for one slot with no allocation
    and no call per draw, and runs the emission draws of the on sources
    only.  This is the kernel behind
    [Smbm_traffic.Source_bank], which validates every argument; use that
    module instead. *)
module Bank : sig
  type label =
    | Uniform_port of int  (** port uniform on [\[0, n)], value 1 *)
    | Uniform_port_and_value of { n : int; k : int }
        (** port uniform on [\[0, n)], value uniform on [\[1, k\]] *)
    | Value_equals_port of int  (** port uniform on [\[0, n)], value port + 1 *)
    | Fixed of { dest : int; value : int }
    | Weighted of { cumulative : float array; value_of_port : int array }
        (** port [i] for a uniform draw in
            [\[cumulative.(i-1), cumulative.(i))] of [\[0, total)] *)

  type t

  val create :
    rng:rng ->
    sources:int ->
    p_on_to_off:float ->
    p_off_to_on:float ->
    lambda:float ->
    batch_p:float ->
    alpha:float ->
    max_batch:int ->
    label:label ->
    t
  (** Splits each source's process stream then its label stream from
      [rng], in source order, and draws each source's initial state from
      the stationary distribution on its process stream.  An on source
      emits a Poisson([lambda]) count, drawn first, plus with probability
      [batch_p] one {!pareto_int} batch ([alpha], [max_batch]); a zero
      [lambda] and a [batch_p] of 0 or 1 draw nothing.
      @raise Invalid_argument if [sources < 0], [max_batch < 1], a
      probability ([p_on_to_off], [p_off_to_on], [batch_p]) is NaN or
      outside [\[0, 1\]], [lambda] is negative or not finite, or the label
      has a port or value count below 1 or empty or unequal weighted
      arrays. *)

  val fill : t -> int
  (** Step every source one slot.  What a caller can rely on, per source:
      its process stream sees the transition draw (none for a transition
      probability of 0 or 1), then, when the source ends the slot on, the
      emission draws; its label stream sees one label per emitted packet.
      The packets land in {!dest}/{!value} in source order, each source's
      in draw order; returns their count.  After the call {!is_on} reads
      each source's new state.  The order in which different sources are
      stepped is not part of the contract: no two share a stream. *)

  val dest : t -> int array
  val value : t -> int array
  (** The last {!fill}'s packets occupy the indices below its result.  The
      arrays are replaced when they grow: read them after each {!fill}. *)

  val sources : t -> int

  val is_on : t -> int -> bool
  (** Whether source [i] ended the last slot in the on state. *)

  val stationary_on : p_on_to_off:float -> p_off_to_on:float -> float
  (** The on-state's stationary probability (0.5 when neither state is
      ever left). *)
end
