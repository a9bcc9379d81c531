type t = {
  k : int;
  counts : int array; (* counts.(i) = multiplicity of key i, index 0 unused *)
  mutable size : int;
  mutable sum : int;
}

let create ~k =
  if k <= 0 then invalid_arg "Count_multiset.create: k must be positive";
  { k; counts = Array.make (k + 1) 0; size = 0; sum = 0 }

let k t = t.k
let size t = t.size
let is_empty t = t.size = 0

let check_key t key =
  if key < 1 || key > t.k then invalid_arg "Count_multiset: key out of range"

let count t key =
  check_key t key;
  t.counts.(key)

let add t key =
  check_key t key;
  t.counts.(key) <- t.counts.(key) + 1;
  t.size <- t.size + 1;
  t.sum <- t.sum + key

let remove t key =
  check_key t key;
  if t.counts.(key) = 0 then invalid_arg "Count_multiset.remove: absent key";
  t.counts.(key) <- t.counts.(key) - 1;
  t.size <- t.size - 1;
  t.sum <- t.sum - key

(* Plain loops returning a sentinel: both OPT references call these on
   every full-buffer arrival, and [serve_srpt] once per completed key. *)
let min_key t =
  let i = ref 1 in
  while !i <= t.k && t.counts.(!i) = 0 do
    incr i
  done;
  if !i > t.k then 0 else !i

let max_key t =
  let i = ref t.k in
  while !i >= 1 && t.counts.(!i) = 0 do
    decr i
  done;
  !i

let sum t = t.sum

let fold f acc t =
  let acc = ref acc in
  for key = 1 to t.k do
    if t.counts.(key) > 0 then acc := f !acc ~key ~count:t.counts.(key)
  done;
  !acc

let clear t =
  Array.fill t.counts 0 (t.k + 1) 0;
  t.size <- 0;
  t.sum <- 0

let serve_srpt t ~budget =
  let budget = ref budget in
  let transmitted = ref 0 in
  let continue = ref true in
  while !continue && !budget > 0 && t.size > 0 do
    let r = min_key t in
    if r = 0 then continue := false
    else if !budget >= r then begin
      (* Complete as many key-r elements as the budget allows. *)
      let complete = min t.counts.(r) (!budget / r) in
      t.counts.(r) <- t.counts.(r) - complete;
      t.size <- t.size - complete;
      t.sum <- t.sum - (complete * r);
      transmitted := !transmitted + complete;
      budget := !budget - (complete * r);
      if t.counts.(r) > 0 then begin
        (* Partial service of one more key-r element. *)
        if !budget > 0 then begin
          t.counts.(r) <- t.counts.(r) - 1;
          t.counts.(r - !budget) <- t.counts.(r - !budget) + 1;
          t.sum <- t.sum - !budget;
          budget := 0
        end
        else continue := false
      end
    end
    else begin
      t.counts.(r) <- t.counts.(r) - 1;
      t.counts.(r - !budget) <- t.counts.(r - !budget) + 1;
      t.sum <- t.sum - !budget;
      budget := 0
    end
  done;
  !transmitted

let remove_largest t ~budget =
  let remaining = ref (min budget t.size) in
  let value = ref 0 in
  let key = ref t.k in
  while !remaining > 0 && !key >= 1 do
    let take = min t.counts.(!key) !remaining in
    if take > 0 then begin
      t.counts.(!key) <- t.counts.(!key) - take;
      t.size <- t.size - take;
      t.sum <- t.sum - (take * !key);
      value := !value + (take * !key);
      remaining := !remaining - take
    end;
    decr key
  done;
  !value
