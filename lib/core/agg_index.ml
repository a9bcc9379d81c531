(* Tournament tree over queue indices 0 .. n-1.

   Internal nodes store the *index* of the winning leaf, never a key: a
   match reads the two candidates' entries in int key columns (often
   aliases of the switch's own per-port aggregates), so the only
   maintenance obligation is to refresh an element's derived keys and
   re-run the matches on its root path after its state changes.  Matches
   elsewhere in the tree compare unchanged elements and therefore keep
   their outcome.

   That maintenance is deferred: [invalidate] only marks the element
   pending (O(1)), and every read ([top], [top_excluding], [check]) first
   settles the pending set.  A switch mutates several queues per slot —
   every accept, push-out and transmission — but the victim indexes are
   read only at full-buffer arrivals, so repeated marks of one port
   collapse into one refresh and the climbs run only when someone looks.

   The order must be a strict total order (callers end every comparison
   chain with an index comparison), which makes the winner of a match
   independent of argument order and the tree's root equal to the unique
   maximum — the same element a left-to-right scan with the matching tie
   convention selects.

   Two comparator shapes:

   - [Lex]: a two-key lexicographic order.  A match is three unboxed array
     loads and integer compares: k1 desc, then k2 desc, then the index tie.
     Derived keys are recomputed by [refresh_key] once per pending element
     when the tree settles — at most once per mutation — instead of once
     per comparison.

   - [Ratio]: a num/den order, which is not lexicographic: eligible
     elements (den > 0) compare by cross-multiplication (exact integer
     arithmetic), ties toward the larger [k2], then the index tie;
     ineligible elements (den <= 0) rank below all eligible ones and among
     themselves by the index tie.  MRD (len^2 / sum), WVD (work / value)
     and DPK (port work / tail value) are its instances. *)

type kind =
  | Lex of {
      k1 : int array;
      k2 : int array;
      largest_tie : bool;  (* full-key ties keep the largest index? *)
      refresh_key : int -> unit;
    }
  | Ratio of {
      num : int array;
      den : int array;  (* <= 0 = ineligible *)
      k2 : int array;
      largest_tie : bool;
      refresh_key : int -> unit;
    }

type t = {
  n : int;
  leaves : int;  (* power of two >= n (>= 1); leaf j lives at [leaves + j] *)
  depth : int;  (* log2 leaves: the number of matches on a root path *)
  tree : int array;  (* 2 * leaves slots; root at 1; -1 = no element *)
  kind : kind;
  pending : int array;  (* stack of marked elements, [npending] deep *)
  flags : Bytes.t;  (* per element: '\001' iff on the stack *)
  mutable npending : int;
}

(* The match comparison.  [a]/[b] are in [0, n) whenever this runs (the
   tree stores only valid indices or -1, and [combine] filters the -1s), so
   the key-column accesses skip the bounds check — this is the per-mutation
   hot path of every victim index. *)
let better t a b =
  match t.kind with
  | Lex { k1; k2; largest_tie; _ } ->
    let ka = Array.unsafe_get k1 a and kb = Array.unsafe_get k1 b in
    ka > kb
    || ka = kb
       &&
       let sa = Array.unsafe_get k2 a and sb = Array.unsafe_get k2 b in
       sa > sb || (sa = sb && if largest_tie then a > b else a < b)
  | Ratio { num; den; k2; largest_tie; _ } ->
    let da = Array.unsafe_get den a and db = Array.unsafe_get den b in
    if da > 0 && db > 0 then begin
      let x = Array.unsafe_get num a * db and y = Array.unsafe_get num b * da in
      x > y
      || x = y
         &&
         let sa = Array.unsafe_get k2 a and sb = Array.unsafe_get k2 b in
         sa > sb || (sa = sb && if largest_tie then a > b else a < b)
    end
    else if da > 0 then true
    else if db > 0 then false
    else if largest_tie then a > b
    else a < b

let combine t a b =
  if a < 0 then b else if b < 0 then a else if better t a b then a else b

let refresh_key t j =
  match t.kind with
  | Lex { refresh_key; _ } -> refresh_key j
  | Ratio { refresh_key; _ } -> refresh_key j

let rebuild t =
  for i = t.leaves - 1 downto 1 do
    t.tree.(i) <- combine t t.tree.(2 * i) t.tree.((2 * i) + 1)
  done

let clear_pending t =
  for s = 0 to t.npending - 1 do
    Bytes.unsafe_set t.flags (Array.unsafe_get t.pending s) '\000'
  done;
  t.npending <- 0

let refresh t =
  for j = 0 to t.n - 1 do
    refresh_key t j
  done;
  rebuild t;
  clear_pending t

let make ~n kind =
  if n < 1 then invalid_arg "Agg_index: n must be >= 1";
  let leaves = ref 1 and depth = ref 0 in
  while !leaves < n do
    leaves := !leaves * 2;
    incr depth
  done;
  let leaves = !leaves in
  let tree =
    Array.init (2 * leaves) (fun i ->
        if i >= leaves && i - leaves < n then i - leaves else -1)
  in
  let t =
    {
      n;
      leaves;
      depth = !depth;
      tree;
      kind;
      pending = Array.make n 0;
      flags = Bytes.make n '\000';
      npending = 0;
    }
  in
  refresh t;
  t

let check_columns ~n name cols =
  List.iter
    (fun c ->
      if Array.length c < n then
        invalid_arg ("Agg_index." ^ name ^ ": key column shorter than n"))
    cols

let create_lex ~n ?(tie = `Largest_index) ~k1 ~k2 ~refresh () =
  check_columns ~n "create_lex" [ k1; k2 ];
  make ~n (Lex { k1; k2; largest_tie = tie = `Largest_index; refresh_key = refresh })

let create_ratio ~n ?(tie = `Largest_index) ~num ~den ~k2 ~refresh () =
  check_columns ~n "create_ratio" [ num; den; k2 ];
  let largest_tie = tie = `Largest_index in
  make ~n (Ratio { num; den; k2; largest_tie; refresh_key = refresh })

let n t = t.n

let is_pending t j = Bytes.unsafe_get t.flags j <> '\000'

let invalidate t j =
  if j < 0 || j >= t.n then invalid_arg "Agg_index.invalidate: bad index";
  if not (is_pending t j) then begin
    Bytes.unsafe_set t.flags j '\001';
    Array.unsafe_set t.pending t.npending j;
    t.npending <- t.npending + 1
  end

(* Re-run the matches on [j]'s root path, stopping at a node that keeps
   its stored winner [w] when [w] is not pending.  [settle] has refreshed
   every pending key first, so each match compares current keys, and the
   stop is sound:
   - a node whose winner changes always passes the climb on to its parent,
     so no match above keeps a child's old winner;
   - an unchanged winner that is not pending has the keys it had when the
     matches above last ran, so those outcomes stand, except on other
     pending paths, which their own climbs re-run;
   - a pending winner may have moved, so it never stops a climb.  It won
     every match below the node on its own root path, so its own climb
     reaches the node too, unless another climb rewrote a node on that
     path first — and that climb then carried on through this node.
   With one pending element this is the eager rule "unchanged and [<> j]". *)
let climb t j =
  let i = ref ((t.leaves + j) / 2) in
  let continue_ = ref true in
  while !continue_ && !i >= 1 do
    let w = combine t t.tree.(2 * !i) t.tree.((2 * !i) + 1) in
    if w = t.tree.(!i) && not (is_pending t w) then continue_ := false
    else begin
      t.tree.(!i) <- w;
      i := !i / 2
    end
  done

(* Bring the tree up to date with every pending element.  All derived keys
   are refreshed before any match runs, so no match compares an element's
   fresh aliased key (a queue length is always current) with its stale
   derived one.  Then re-run every match once [np] climbs of up to [depth]
   matches could cost as much as the [leaves - 1] of a rebuild; otherwise
   climb each pending path. *)
let settle t =
  let np = t.npending in
  if np > 0 then begin
    for s = 0 to np - 1 do
      refresh_key t (Array.unsafe_get t.pending s)
    done;
    if np * t.depth >= t.leaves then rebuild t
    else
      for s = 0 to np - 1 do
        climb t (Array.unsafe_get t.pending s)
      done;
    clear_pending t
  end

let top t =
  settle t;
  t.tree.(1)

let top_excluding t j =
  if j < 0 || j >= t.n then invalid_arg "Agg_index.top_excluding: bad index";
  settle t;
  (* Winner over every leaf except [j]: climb j's root path, folding in the
     sibling subtree's stored winner at each level. *)
  let i = ref (t.leaves + j) in
  let best = ref (-1) in
  while !i > 1 do
    best := combine t !best t.tree.(!i lxor 1);
    i := !i / 2
  done;
  !best

let check t =
  settle t;
  (* Then prove no key is stale: recomputing any element's keys must be a
     no-op, or some mutation skipped its [invalidate]. *)
  (match t.kind with
  | Lex { k1; k2; refresh_key; _ } ->
    for j = 0 to t.n - 1 do
      let a = k1.(j) and b = k2.(j) in
      refresh_key j;
      if k1.(j) <> a || k2.(j) <> b then
        invalid_arg
          (Printf.sprintf "Agg_index.check: stale lex key for element %d" j)
    done
  | Ratio { num; den; k2; refresh_key; _ } ->
    for j = 0 to t.n - 1 do
      let a = num.(j) and b = den.(j) and c = k2.(j) in
      refresh_key j;
      if num.(j) <> a || den.(j) <> b || k2.(j) <> c then
        invalid_arg
          (Printf.sprintf "Agg_index.check: stale ratio key for element %d" j)
    done);
  for i = 1 to t.leaves - 1 do
    let w = combine t t.tree.(2 * i) t.tree.((2 * i) + 1) in
    if w <> t.tree.(i) then
      invalid_arg
        (Printf.sprintf
           "Agg_index.check: stale match at node %d (holds %d, expects %d)" i
           t.tree.(i) w)
  done

let per_switch index =
  let cache = ref None in
  fun sw ->
    match !cache with
    | Some (sw', idx) when sw' == sw -> idx
    | Some _ | None ->
      let idx = index sw in
      cache := Some (sw, idx);
      idx
