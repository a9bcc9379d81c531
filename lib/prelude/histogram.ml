(* The float state lives in an all-float record, which OCaml stores flat:
   assigning a field writes the raw double, where a float field of the
   mixed record [t] would box a fresh one on every sample. *)
type floats = { mutable sum : float; mutable max_seen : float }

type t = {
  max_value : float;
  buckets_per_decade : int;
  counts : int array; (* counts.(0) is the [0, 1) bucket *)
  small : int array; (* small.(x): the unclamped bucket of integer sample x *)
  mutable total : int;
  f : floats;
}

let bucket_count ~max_value ~buckets_per_decade =
  (* One bucket for [0, 1), then buckets_per_decade per decade above 1. *)
  1 + int_of_float (ceil (log10 max_value *. float_of_int buckets_per_decade))

(* Every [add] inlines these and [observe], so [add_int]'s and
   [add_scaled]'s converted sample never crosses a call boxed (the build
   has no flambda): an integer lands in exactly the bucket its float
   would.  [index] is [clamp] of [raw_index]; the small-sample table below
   stores [raw_index] and [add_int] clamps what it reads the same way. *)
let[@inline] raw_index bpd x =
  if x < 1.0 then 0 else 1 + int_of_float (log10 x *. float_of_int bpd)

let[@inline] clamp t i =
  let last = Array.length t.counts - 1 in
  if i < last then i else last

let[@inline] index t x = clamp t (raw_index t.buckets_per_decade x)

let[@inline] observe_at t i x =
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  let f = t.f in
  f.sum <- f.sum +. x;
  if x > f.max_seen then f.max_seen <- x

let[@inline] observe t x = observe_at t (index t x) x

(* Integer samples below [small_ints] read their bucket from a table
   instead of taking a [log10]: per-packet latencies and per-slot
   occupancies in slots almost always fit.  The table depends only on
   [buckets_per_decade], so every histogram at the default shares one,
   built when the program starts, and creating one takes no [log10]
   (simulations create histograms by the thousand); another bucketing
   builds its own. *)
let small_ints = 1024
let default_buckets_per_decade = 10

let small_table bpd =
  Array.init small_ints (fun x -> raw_index bpd (float_of_int x))

let default_small = small_table default_buckets_per_decade

let create ?(max_value = 1e9)
    ?(buckets_per_decade = default_buckets_per_decade) () =
  if max_value <= 1.0 then invalid_arg "Histogram.create: max_value <= 1";
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.create: buckets_per_decade < 1";
  {
    max_value;
    buckets_per_decade;
    counts = Array.make (bucket_count ~max_value ~buckets_per_decade + 1) 0;
    small =
      (if buckets_per_decade = default_buckets_per_decade then default_small
       else small_table buckets_per_decade);
    total = 0;
    f = { sum = 0.0; max_seen = 0.0 };
  }

(* Lower edge of bucket i (inverse of [index]). *)
let lower_edge t i =
  if i = 0 then 0.0
  else Float.pow 10.0 (float_of_int (i - 1) /. float_of_int t.buckets_per_decade)

let upper_edge t i =
  if i = 0 then 1.0
  else Float.pow 10.0 (float_of_int i /. float_of_int t.buckets_per_decade)

let add t x =
  if x < 0.0 then invalid_arg "Histogram.add: negative sample";
  observe t x

let add_int t x =
  if x < 0 then invalid_arg "Histogram.add_int: negative sample";
  if x < small_ints then
    observe_at t (clamp t (Array.unsafe_get t.small x)) (float_of_int x)
  else observe t (float_of_int x)

(* The unit conversion happens here, after the call: a float constant
   [scale] is a static block, so the caller boxes nothing. *)
let add_scaled t x scale =
  let v = float_of_int x *. scale in
  if v < 0.0 then invalid_arg "Histogram.add_scaled: negative sample";
  observe t v

let count t = t.total
let mean t = if t.total = 0 then 0.0 else t.f.sum /. float_of_int t.total
let max_seen t = t.f.max_seen
let buckets_per_decade t = t.buckets_per_decade

let buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

let bucket_bounds ~buckets_per_decade i =
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.bucket_bounds: buckets_per_decade < 1";
  if i < 0 then invalid_arg "Histogram.bucket_bounds: negative index";
  if i = 0 then (0.0, 1.0)
  else
    let edge j = Float.pow 10.0 (float_of_int j /. float_of_int buckets_per_decade) in
    (edge (i - 1), edge i)

(* Quantile over externally held (index, count) buckets — the same
   interpolation as [quantile], but usable on the {e difference} of two
   cumulative snapshots, where no [max_seen] exists to clamp against.
   Buckets must be sorted by index; non-positive counts are skipped (a
   racy snapshot pair can transiently produce them). *)
let quantile_of_buckets ~buckets_per_decade buckets q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Histogram.quantile_of_buckets: q outside [0, 1]";
  let total =
    List.fold_left (fun acc (_, c) -> if c > 0 then acc + c else acc) 0 buckets
  in
  if total = 0 then 0.0
  else begin
    let rank = q *. float_of_int total in
    let rec scan seen = function
      | [] -> (
        (* rank = total exactly: the last bucket's upper edge. *)
        match List.rev buckets with
        | (i, _) :: _ -> snd (bucket_bounds ~buckets_per_decade i)
        | [] -> 0.0)
      | (i, c) :: rest ->
        if c <= 0 then scan seen rest
        else
          let seen' = seen + c in
          if float_of_int seen' >= rank then begin
            let inside = rank -. float_of_int seen in
            let frac = inside /. float_of_int c in
            let lo, hi = bucket_bounds ~buckets_per_decade i in
            lo +. (frac *. (hi -. lo))
          end
          else scan seen' rest
    in
    scan 0 buckets
  end

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q outside [0, 1]";
  if t.total = 0 then 0.0
  else if t.total = 1 then
    (* The one sample is [max_seen] itself; interpolating inside its bucket
       would report a value strictly below it for any q < 1. *)
    t.f.max_seen
  else begin
    let rank = q *. float_of_int t.total in
    let rec scan i seen =
      if i >= Array.length t.counts then t.f.max_seen
      else
        let seen' = seen + t.counts.(i) in
        if float_of_int seen' >= rank && t.counts.(i) > 0 then begin
          (* Interpolate within the bucket. *)
          let inside = rank -. float_of_int seen in
          let frac = inside /. float_of_int t.counts.(i) in
          let lo = lower_edge t i and hi = Float.min (upper_edge t i) t.f.max_seen in
          Float.min (lo +. (frac *. (hi -. lo))) t.f.max_seen
        end
        else scan (i + 1) seen'
    in
    scan 0 0
  end

let merge a b =
  if
    a.max_value <> b.max_value || a.buckets_per_decade <> b.buckets_per_decade
  then invalid_arg "Histogram.merge: incompatible bucketing";
  let counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts in
  {
    a with
    counts;
    total = a.total + b.total;
    f =
      {
        sum = a.f.sum +. b.f.sum;
        max_seen = Float.max a.f.max_seen b.f.max_seen;
      };
  }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.f.sum <- 0.0;
  t.f.max_seen <- 0.0

let pp ppf t =
  if t.total = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g"
      t.total (mean t) (quantile t 0.5) (quantile t 0.9) (quantile t 0.99)
      t.f.max_seen
