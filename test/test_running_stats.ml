open Smbm_prelude

let check_float = Alcotest.(check (float 1e-9))

let test_empty () =
  let s = Running_stats.create () in
  Alcotest.(check int) "count" 0 (Running_stats.count s);
  check_float "mean" 0.0 (Running_stats.mean s);
  check_float "variance" 0.0 (Running_stats.variance s);
  Alcotest.check_raises "min" (Invalid_argument "Running_stats.min: no samples")
    (fun () -> ignore (Running_stats.min s))

let test_known_values () =
  let s = Running_stats.create () in
  List.iter (Running_stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Running_stats.count s);
  check_float "mean" 5.0 (Running_stats.mean s);
  (* Unbiased sample variance of this classic data set: 32/7. *)
  check_float "variance" (32.0 /. 7.0) (Running_stats.variance s);
  check_float "min" 2.0 (Running_stats.min s);
  check_float "max" 9.0 (Running_stats.max s);
  check_float "sum" 40.0 (Running_stats.sum s)

let test_single_sample () =
  let s = Running_stats.create () in
  Running_stats.add s 3.5;
  check_float "mean" 3.5 (Running_stats.mean s);
  check_float "variance with one sample" 0.0 (Running_stats.variance s);
  check_float "min=max" (Running_stats.min s) (Running_stats.max s)

let test_clear () =
  let s = Running_stats.create () in
  Running_stats.add s 1.0;
  Running_stats.clear s;
  Alcotest.(check int) "count reset" 0 (Running_stats.count s);
  Running_stats.add s 2.0;
  check_float "reusable" 2.0 (Running_stats.mean s)

let test_merge_matches_combined () =
  let a = Running_stats.create ()
  and b = Running_stats.create ()
  and whole = Running_stats.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Running_stats.add a) xs;
  List.iter (Running_stats.add b) ys;
  List.iter (Running_stats.add whole) (xs @ ys);
  let merged = Running_stats.merge a b in
  Alcotest.(check int) "count" (Running_stats.count whole)
    (Running_stats.count merged);
  check_float "mean" (Running_stats.mean whole) (Running_stats.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Running_stats.variance whole)
    (Running_stats.variance merged);
  check_float "min" (Running_stats.min whole) (Running_stats.min merged);
  check_float "max" (Running_stats.max whole) (Running_stats.max merged)

let test_merge_with_empty () =
  let a = Running_stats.create () and b = Running_stats.create () in
  Running_stats.add a 5.0;
  let m1 = Running_stats.merge a b and m2 = Running_stats.merge b a in
  check_float "a + empty" 5.0 (Running_stats.mean m1);
  check_float "empty + a" 5.0 (Running_stats.mean m2)

let prop_welford_matches_naive =
  QCheck2.Test.make ~name:"Welford matches naive two-pass statistics"
    ~count:200
    QCheck2.Gen.(list_size (int_range 2 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Running_stats.create () in
      List.iter (Running_stats.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      abs_float (Running_stats.mean s -. mean) < 1e-6
      && abs_float (Running_stats.variance s -. var) < 1e-5)

(* The Welford code as it stood with its floats in a mixed record: the
   flat float storage, and [add_int], must reproduce it bit for bit. *)
module Reference = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let nf = float_of_int n in
      let mean = a.mean +. (delta *. float_of_int b.n /. nf) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
      in
      { n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
    end
end

let same s (r : Reference.t) =
  let bits = Int64.bits_of_float in
  Running_stats.count s = r.n
  && bits (Running_stats.mean s) = bits (Reference.mean r)
  && bits (Running_stats.variance s) = bits (Reference.variance r)
  && (r.n = 0
     || bits (Running_stats.min s) = bits r.min
        && bits (Running_stats.max s) = bits r.max)

let prop_storage_matches_reference =
  QCheck2.Test.make
    ~name:"flat Welford = mixed-record Welford, bit for bit (add, add_int, merge)"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60)
           (oneof
              [
                map (fun x -> `Int x) (int_range 0 10_000_000);
                map (fun x -> `Float x) (float_range (-1e6) 1e6);
              ]))
        (list_size (int_range 0 60) (int_range 0 100_000)))
    (fun (xs, ys) ->
      let feed s r = function
        | `Int x ->
          Running_stats.add_int s x;
          Reference.add r (float_of_int x)
        | `Float x ->
          Running_stats.add s x;
          Reference.add r x
      in
      let a = Running_stats.create () and ra = Reference.create () in
      List.iter (feed a ra) xs;
      let b = Running_stats.create () and rb = Reference.create () in
      List.iter (fun y -> feed b rb (`Int y)) ys;
      same a ra && same b rb
      && same (Running_stats.merge a b) (Reference.merge ra rb)
      && same (Running_stats.merge b a) (Reference.merge rb ra))

let prop_add_scaled_matches_reference =
  QCheck2.Test.make ~name:"add_scaled x s = add (float x *. s), bit for bit"
    ~count:300
    QCheck2.Gen.(
      pair
        (oneofl [ 1e-3; 1e-6; 1.0 ])
        (list_size (int_range 0 60) (int_range 0 10_000_000_000)))
    (fun (scale, xs) ->
      let s = Running_stats.create () and r = Reference.create () in
      List.iter
        (fun x ->
          Running_stats.add_scaled s x scale;
          Reference.add r (float_of_int x *. scale))
        xs;
      same s r)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "known values" `Quick test_known_values;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "merge matches combined stream" `Quick
      test_merge_matches_combined;
    Alcotest.test_case "merge with empty" `Quick test_merge_with_empty;
    Qc.to_alcotest prop_welford_matches_naive;
    Qc.to_alcotest prop_storage_matches_reference;
    Qc.to_alcotest prop_add_scaled_matches_reference;
  ]
