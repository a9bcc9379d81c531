(** Incremental argmax over queue indices: a tournament tree whose matches
    compare int key columns.

    The switches maintain one of these per registered victim-selection key
    (see {!Proc_switch.find_index} / {!Value_switch.find_index}): a queue
    mutation marks that queue pending in O(1), and a policy reads the
    argmax — or the argmax excluding the destination queue — in O(log n)
    amortized instead of rescanning all n queues.  Each read first settles
    the pending queues: it refreshes their keys and re-runs the matches on
    their root paths (or every match, when that is cheaper).

    Internal nodes store winner {e indices}, not keys.  Key columns are
    caller-owned [int array]s and may alias the switch's live per-port
    aggregate arrays (then [refresh] is [ignore]); any {e derived} keys are
    recomputed by a caller-supplied [refresh] once per pending element per
    settle instead of once per comparison.  The contract is only that after
    any queue's state changes, {!invalidate} is called for it before the
    next query. *)

type t

val create_lex :
  n:int ->
  ?tie:[ `Largest_index | `Smallest_index ] ->
  k1:int array ->
  k2:int array ->
  refresh:(int -> unit) ->
  unit ->
  t
(** Lexicographic order: larger [k1.(j)] wins, then larger [k2.(j)], then
    the index tie ([`Largest_index] by default).  [refresh j] must (re)write
    element [j]'s keys from live state; it runs for every element at
    creation and by {!refresh}, and once per pending element when a read
    settles — pass [ignore] when both columns alias live aggregates.  The
    columns must have length >= [n].
    @raise Invalid_argument if [n < 1] or a column is shorter than [n]. *)

val create_ratio :
  n:int ->
  ?tie:[ `Largest_index | `Smallest_index ] ->
  num:int array ->
  den:int array ->
  k2:int array ->
  refresh:(int -> unit) ->
  unit ->
  t
(** Ratio order, which is not lexicographic: elements with [den.(j) <= 0]
    are ineligible and rank below all eligible ones (among themselves by
    the index tie); eligible elements compare by the exact cross-multiplied
    ratio [num / den] (larger wins), then larger [k2.(j)], then the index
    tie ([`Largest_index] by default).  MRD's [len^2 / sum] and the
    valued FIFO policies' [W_j / V_j] and [work / tail value] are its
    instances.  Same column-ownership and [refresh] contract as
    {!create_lex}. *)

val n : t -> int

val invalidate : t -> int -> unit
(** Mark element [j] pending after its state changed.  O(1): no key is
    refreshed and no match runs until the next {!top}, {!top_excluding} or
    {!check}; marking an element already pending is a no-op.
    @raise Invalid_argument if [j] is out of range. *)

val refresh : t -> unit
(** Refresh every key and re-run every match (after a bulk change such as
    a flushout), leaving nothing pending.  O(n). *)

val top : t -> int
(** The current overall winner (the unique maximum).  Settles the pending
    elements first: O(p log n) for [p] pending, at most O(n). *)

val top_excluding : t -> int -> int
(** The winner among all elements except the given one; [-1] when [n = 1].
    Settles like {!top} (so it writes the tree), then O(log n).
    @raise Invalid_argument if the index is out of range. *)

val check : t -> unit
(** Settle, then verify every stored match outcome against a fresh
    comparison and that no key column entry is stale — detecting a state
    change whose {!invalidate} was skipped.  Test hook.
    @raise Invalid_argument on an inconsistency. *)

val per_switch : ('sw -> t) -> 'sw -> t
(** [per_switch index] memoizes [index] (typically a switch's
    [find_index] registration) on the last switch it saw, compared
    physically: a policy resolves its index once per switch instead of
    looking it up on every admission. *)
