open Smbm_prelude

let test_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 0.0 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "quantile" 0.0 (Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "max" 0.0 (Histogram.max_seen h)

let test_validation () =
  let h = Histogram.create () in
  (match Histogram.add h (-1.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative sample accepted");
  (match Histogram.quantile h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q > 1 accepted");
  match Histogram.create ~max_value:0.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_value <= 1 accepted"

let test_mean_exact () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 10.0 ];
  Alcotest.(check (float 1e-9)) "mean is exact" 4.0 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "max" 10.0 (Histogram.max_seen h);
  Alcotest.(check int) "count" 4 (Histogram.count h)

let test_quantiles_bounded_error () =
  (* With 10 buckets per decade, any quantile must fall within ~30% of the
     true value for a known uniform sample. *)
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  List.iter
    (fun q ->
      let est = Histogram.quantile h q in
      let true_v = q *. 1000.0 in
      if abs_float (est -. true_v) /. true_v > 0.3 then
        Alcotest.failf "q=%.2f: estimate %.1f too far from %.1f" q est true_v)
    [ 0.1; 0.25; 0.5; 0.9; 0.99 ]

let test_quantile_monotone () =
  let h = Histogram.create () in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 500 do
    Histogram.add h (Rng.float rng *. 1000.0)
  done;
  let prev = ref 0.0 in
  List.iter
    (fun q ->
      let v = Histogram.quantile h q in
      if v < !prev -. 1e-9 then Alcotest.fail "quantiles not monotone";
      prev := v)
    [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99; 1.0 ]

let test_single_sample () =
  (* Every quantile of a one-sample distribution IS that sample; the
     log-bucket interpolation must not report a value below it. *)
  let h = Histogram.create () in
  Histogram.add h 17.0;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f of single sample" q)
        17.0 (Histogram.quantile h q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  (* And a clamped single sample still reports the exact maximum. *)
  let c = Histogram.create ~max_value:10.0 () in
  Histogram.add c 1e6;
  Alcotest.(check (float 1e-9)) "clamped single sample" 1e6
    (Histogram.quantile c 0.99)

let test_quantile_capped_by_max () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 5.0; 5.0; 5.0 ];
  Alcotest.(check bool) "p99 <= max" true
    (Histogram.quantile h 0.99 <= 5.0 +. 1e-9)

let test_clamping () =
  let h = Histogram.create ~max_value:100.0 () in
  Histogram.add h 1e9;
  Alcotest.(check int) "clamped sample counted" 1 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "max tracked exactly" 1e9 (Histogram.max_seen h)

let test_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1.0; 2.0 ];
  List.iter (Histogram.add b) [ 100.0; 200.0 ];
  let m = Histogram.merge a b in
  Alcotest.(check int) "count" 4 (Histogram.count m);
  Alcotest.(check (float 1e-9)) "mean" 75.75 (Histogram.mean m);
  let incompatible = Histogram.create ~buckets_per_decade:5 () in
  match Histogram.merge a incompatible with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incompatible merge accepted"

let test_clear () =
  let h = Histogram.create () in
  Histogram.add h 7.0;
  Histogram.clear h;
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Histogram.add h 3.0;
  Alcotest.(check (float 1e-9)) "reusable" 3.0 (Histogram.mean h)

let test_bucket_export () =
  (* The exported (index, count) shape is complete (counts sum to the
     histogram's count), sorted, and consistent with bucket_bounds: every
     sample falls inside its bucket's edges. *)
  let h = Histogram.create () in
  let samples = [ 0.5; 1.5; 1.7; 42.0; 42.0; 9000.0 ] in
  List.iter (Histogram.add h) samples;
  let bpd = Histogram.buckets_per_decade h in
  let buckets = Histogram.buckets h in
  Alcotest.(check int)
    "counts sum to count"
    (Histogram.count h)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  Alcotest.(check bool)
    "sorted by index, all counts positive" true
    (fst (List.fold_left
            (fun (ok, prev) (i, c) -> (ok && i > prev && c > 0, i))
            (true, -1) buckets));
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "%g falls in an exported bucket" x)
        true
        (List.exists
           (fun (i, _) ->
             let lo, hi = Histogram.bucket_bounds ~buckets_per_decade:bpd i in
             lo <= x && x < hi)
           buckets))
    samples;
  (* Reconstruction: quantiles over the exported buckets agree with the
     histogram's own (both interpolate the same shape; the external path
     lacks the max_seen clamp, hence the loose bound). *)
  List.iter
    (fun q ->
      let direct = Histogram.quantile h q in
      let rebuilt =
        Histogram.quantile_of_buckets ~buckets_per_decade:bpd buckets q
      in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f reconstructed within a bucket" q)
        true
        (abs_float (rebuilt -. direct) <= (0.35 *. direct) +. 1.0))
    [ 0.25; 0.5; 0.9; 0.99 ];
  Alcotest.(check (float 1e-9))
    "empty bucket list" 0.0
    (Histogram.quantile_of_buckets ~buckets_per_decade:10 [] 0.5);
  match Histogram.bucket_bounds ~buckets_per_decade:10 (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index accepted"

let prop_median_within_bucket_error =
  QCheck2.Test.make ~name:"histogram median tracks exact median" ~count:100
    QCheck2.Gen.(list_size (int_range 10 200) (float_range 0.0 10000.0))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let sorted = List.sort compare xs in
      (* Nearest-rank (lower) median, matching the estimator's convention:
         the upper median can sit across an arbitrarily large data gap. *)
      let exact = List.nth sorted ((List.length xs - 1) / 2) in
      let est = Histogram.quantile h 0.5 in
      (* Log-bucketed: allow ~35% relative error plus an absolute grace for
         tiny values. *)
      abs_float (est -. exact) <= (0.35 *. exact) +. 1.5)

(* The two quantile paths — the histogram's own scan (clamped by
   max_seen) and the external bucket-list interpolation — walk the same
   shape to the same target bucket.  Their exact relation: the bucket
   path never reads lower, and wherever the target bucket lies wholly
   below max_seen (so the clamp is inert), they agree to the last bit of
   the shared arithmetic; in the max bucket they differ by at most the
   clamp, i.e. the bucket's width. *)
let prop_bucket_quantile_equals_direct =
  QCheck2.Test.make
    ~name:"quantile_of_buckets matches quantile wherever the clamp is inert"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 300) (float_range 0.0 1e6))
        (float_range 0.0 1.0))
    (fun (xs, q) ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let bpd = Histogram.buckets_per_decade h in
      let buckets = Histogram.buckets h in
      let direct = Histogram.quantile h q in
      let rebuilt = Histogram.quantile_of_buckets ~buckets_per_decade:bpd buckets q in
      (* Independent re-derivation of the target bucket. *)
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
      let rank = q *. float_of_int total in
      let target =
        let rec scan seen = function
          | [] -> fst (List.hd (List.rev buckets))
          | (i, c) :: rest ->
            if float_of_int (seen + c) >= rank then i else scan (seen + c) rest
        in
        scan 0 buckets
      in
      let lo, hi = Histogram.bucket_bounds ~buckets_per_decade:bpd target in
      let max_seen = Histogram.max_seen h in
      let eps = 1e-9 *. Float.max 1.0 rebuilt in
      direct <= rebuilt +. eps
      && direct <= max_seen +. eps
      && rebuilt -. direct <= hi -. lo +. eps
      && if hi <= max_seen then abs_float (rebuilt -. direct) <= eps else true)

(* [add_int x] must record exactly what [add (float_of_int x)] records:
   it recomputes the bucket inline rather than calling [add], so the two
   formulas are compared here on everything a reader can see. *)
let same_observations h1 h2 =
  let bits = Int64.bits_of_float in
  Histogram.buckets h1 = Histogram.buckets h2
  && Histogram.count h1 = Histogram.count h2
  && bits (Histogram.mean h1) = bits (Histogram.mean h2)
  && bits (Histogram.max_seen h1) = bits (Histogram.max_seen h2)
  && List.for_all
       (fun q ->
         bits (Histogram.quantile h1 q) = bits (Histogram.quantile h2 q))
       [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* Integers around every bucket edge up to 10^9: the edges' nearest
   integers and one either side, where a formula drift would first
   misfile a sample. *)
let edge_samples ~buckets_per_decade =
  List.concat_map
    (fun i ->
      let e =
        Float.pow 10.0 (float_of_int i /. float_of_int buckets_per_decade)
      in
      let lo = int_of_float (Float.floor e) and hi = int_of_float (Float.ceil e) in
      List.filter (fun x -> x >= 0) [ lo - 1; lo; hi; hi + 1 ])
    (List.init ((9 * buckets_per_decade) + 1) Fun.id)

let shapes = [ (1e7, 10); (1e9, 10); (1e4, 3) ]

let test_add_int_edges () =
  List.iter
    (fun (max_value, buckets_per_decade) ->
      List.iter
        (fun x ->
          let h1 = Histogram.create ~max_value ~buckets_per_decade ()
          and h2 = Histogram.create ~max_value ~buckets_per_decade () in
          Histogram.add_int h1 x;
          Histogram.add h2 (float_of_int x);
          if not (same_observations h1 h2) then
            Alcotest.failf "max_value=%g bpd=%d: add_int %d <> add %d.0"
              max_value buckets_per_decade x x)
        (edge_samples ~buckets_per_decade))
    shapes;
  match Histogram.add_int (Histogram.create ()) (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative int sample accepted"

let prop_add_int_is_add =
  QCheck2.Test.make ~name:"add_int x = add (float x)" ~count:300
    QCheck2.Gen.(
      pair (oneofl shapes)
        (list_size (int_range 1 200)
           (oneof
              [
                int_range 0 100_000_000;
                int_range 0 1_000;
                (* above every shape's cap: clamped into the last bucket *)
                int_range 1_000_000_000 4_000_000_000;
                map
                  (fun (i, d) ->
                    max 0 (int_of_float (Float.pow 10.0 (float_of_int i /. 10.0)) + d))
                  (pair (int_range 0 80) (int_range (-1) 1));
              ])))
    (fun ((max_value, buckets_per_decade), xs) ->
      let h1 = Histogram.create ~max_value ~buckets_per_decade ()
      and h2 = Histogram.create ~max_value ~buckets_per_decade () in
      List.iter (Histogram.add_int h1) xs;
      List.iter (fun x -> Histogram.add h2 (float_of_int x)) xs;
      same_observations h1 h2)

(* [add_scaled] converts inside the call; it must land exactly where the
   caller's own conversion would. *)
let prop_add_scaled_is_add =
  QCheck2.Test.make ~name:"add_scaled x s = add (float x *. s)" ~count:300
    QCheck2.Gen.(
      triple (oneofl shapes)
        (oneofl [ 1e-3; 1e-6; 1.0; 0.5 ])
        (list_size (int_range 1 200) (int_range 0 4_000_000_000)))
    (fun ((max_value, buckets_per_decade), scale, xs) ->
      let h1 = Histogram.create ~max_value ~buckets_per_decade ()
      and h2 = Histogram.create ~max_value ~buckets_per_decade () in
      List.iter (fun x -> Histogram.add_scaled h1 x scale) xs;
      List.iter (fun x -> Histogram.add h2 (float_of_int x *. scale)) xs;
      same_observations h1 h2)

(* [add_int] reads a small sample's bucket from a table filled at
   creation (1024 entries) and sends a larger one down the float path.
   Each case checks every integer in [0, 4096), one sample at a time on a
   cleared pair, so the whole table and the switch-over to the float path
   are covered, then random large samples; the shapes include a cap
   inside the table range (100) and a fine bucketing. *)
let prop_add_int_table_is_float_path =
  QCheck2.Test.make ~name:"add_int table = float path" ~count:20
    QCheck2.Gen.(
      pair
        (oneofl ((100.0, 10) :: (1e6, 50) :: shapes))
        (list_size (int_range 1 200) (int_range 0 4_000_000_000)))
    (fun ((max_value, buckets_per_decade), large) ->
      let h1 = Histogram.create ~max_value ~buckets_per_decade ()
      and h2 = Histogram.create ~max_value ~buckets_per_decade () in
      let agrees x =
        Histogram.clear h1;
        Histogram.clear h2;
        Histogram.add_int h1 x;
        Histogram.add h2 (float_of_int x);
        same_observations h1 h2
      in
      List.for_all agrees (List.init 4096 Fun.id) && List.for_all agrees large)

let test_add_scaled_rejects_negative () =
  match Histogram.add_scaled (Histogram.create ()) (-1) 1e-3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative scaled sample accepted"

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "exact mean" `Quick test_mean_exact;
    Alcotest.test_case "bounded quantile error" `Quick
      test_quantiles_bounded_error;
    Alcotest.test_case "monotone quantiles" `Quick test_quantile_monotone;
    Alcotest.test_case "single-sample quantiles" `Quick test_single_sample;
    Alcotest.test_case "quantile capped by max" `Quick
      test_quantile_capped_by_max;
    Alcotest.test_case "clamping" `Quick test_clamping;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "bucket export round-trip" `Quick test_bucket_export;
    Qc.to_alcotest prop_median_within_bucket_error;
    Qc.to_alcotest prop_bucket_quantile_equals_direct;
    Alcotest.test_case "add_int = add at every bucket edge" `Quick
      test_add_int_edges;
    Qc.to_alcotest prop_add_int_is_add;
    Qc.to_alcotest prop_add_int_table_is_float_path;
    Qc.to_alcotest prop_add_scaled_is_add;
    Alcotest.test_case "add_scaled rejects a negative sample" `Quick
      test_add_scaled_rejects_negative;
  ]
