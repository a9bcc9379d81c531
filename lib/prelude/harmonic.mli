(** Harmonic numbers [H_n = 1 + 1/2 + ... + 1/n], memoized.

    The paper's NHDT thresholds and several closed-form lower bounds are
    stated in terms of harmonic numbers. *)

val euler_gamma : float
(** The Euler–Mascheroni constant (0.5772...). *)

val h : int -> float
(** [h n] is [H_n]; [h 0 = 0].  Values are memoized in a growable table
    that is safe to read and grow from several domains at once.
    @raise Invalid_argument for negative [n]. *)

val h_range : int -> int -> float
(** [h_range lo hi] is [1/lo + 1/(lo+1) + ... + 1/hi] (0 when [lo > hi]).
    Requires [lo >= 1]. *)

val approx : int -> float
(** [approx n] is the asymptotic [ln n + gamma + 1/(2n)]; useful for
    cross-checking at very large [n]. *)
