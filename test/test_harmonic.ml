open Smbm_prelude

let check_float = Alcotest.(check (float 1e-9))

let test_base_cases () =
  check_float "H_0" 0.0 (Harmonic.h 0);
  check_float "H_1" 1.0 (Harmonic.h 1);
  check_float "H_2" 1.5 (Harmonic.h 2);
  check_float "H_4" (25.0 /. 12.0) (Harmonic.h 4)

let test_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Harmonic.h: negative")
    (fun () -> ignore (Harmonic.h (-1)))

let test_memo_growth () =
  (* Ask out of order to exercise table growth and reuse. *)
  let h1000 = Harmonic.h 1000 in
  let h10 = Harmonic.h 10 in
  check_float "H_10 after H_1000" 2.9289682539682538 h10;
  Alcotest.(check bool) "monotone" true (h1000 > h10)

let test_h_range () =
  check_float "range 1..4 = H_4" (Harmonic.h 4) (Harmonic.h_range 1 4);
  check_float "range 3..5" ((1.0 /. 3.0) +. 0.25 +. 0.2) (Harmonic.h_range 3 5);
  check_float "empty range" 0.0 (Harmonic.h_range 5 4);
  Alcotest.check_raises "lo < 1"
    (Invalid_argument "Harmonic.h_range: lo must be >= 1") (fun () ->
      ignore (Harmonic.h_range 0 3))

let test_approx_close () =
  let n = 10_000 in
  let exact = Harmonic.h n and approx = Harmonic.approx n in
  Alcotest.(check bool) "asymptotic approximation" true
    (abs_float (exact -. approx) < 1e-6)

let prop_recurrence =
  QCheck2.Test.make ~name:"H_n = H_(n-1) + 1/n" ~count:100
    QCheck2.Gen.(int_range 1 5000)
    (fun n ->
      abs_float (Harmonic.h n -. Harmonic.h (n - 1) -. (1.0 /. float_of_int n))
      < 1e-12)

(* Several domains grow the shared memo table at once: each calls [h] with
   increasing [n] and checks every value against its own sequential sum
   (the same recurrence, so equality is exact). *)
let test_concurrent_growth () =
  let top = 300_000 in
  let expected = Array.make (top + 1) 0.0 in
  for i = 1 to top do
    expected.(i) <- expected.(i - 1) +. (1.0 /. float_of_int i)
  done;
  let worker d () =
    let bad = ref 0 in
    let n = ref (1 + d) in
    while !n <= top do
      if Harmonic.h !n <> expected.(!n) then incr bad;
      if Harmonic.h (!n / 2) <> expected.(!n / 2) then incr bad;
      n := !n + 1 + (!n / 64)
    done;
    !bad
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "values off the sequential sum" 0 bad

let suite =
  [
    Alcotest.test_case "base cases" `Quick test_base_cases;
    Alcotest.test_case "negative input" `Quick test_negative;
    Alcotest.test_case "memo growth" `Quick test_memo_growth;
    Alcotest.test_case "h_range" `Quick test_h_range;
    Alcotest.test_case "asymptotic approximation" `Quick test_approx_close;
    Qc.to_alcotest prop_recurrence;
    Alcotest.test_case "concurrent growth across domains" `Quick
      test_concurrent_growth;
  ]
