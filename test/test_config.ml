open Smbm_core

let test_proc_make () =
  let c = Proc_config.make ~works:[| 2; 1; 3 |] ~buffer:10 () in
  Alcotest.(check int) "n" 3 (Proc_config.n c);
  Alcotest.(check int) "k" 3 (Proc_config.k c);
  Alcotest.(check int) "work 0" 2 (Proc_config.work c 0);
  Alcotest.(check int) "default speedup" 1 c.Proc_config.speedup

let test_proc_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "no ports" (fun () ->
      Proc_config.make ~works:[||] ~buffer:4 ());
  expect_invalid "zero work" (fun () ->
      Proc_config.make ~works:[| 0 |] ~buffer:4 ());
  expect_invalid "zero buffer" (fun () ->
      Proc_config.make ~works:[| 1 |] ~buffer:0 ());
  expect_invalid "zero speedup" (fun () ->
      Proc_config.make ~works:[| 1 |] ~buffer:4 ~speedup:0 ())

let test_proc_copies_works () =
  let works = [| 1; 2 |] in
  let c = Proc_config.make ~works ~buffer:4 () in
  works.(0) <- 99;
  Alcotest.(check int) "defensive copy" 1 (Proc_config.work c 0)

let test_contiguous () =
  let c = Proc_config.contiguous ~k:4 ~buffer:8 () in
  Alcotest.(check int) "n = k" 4 (Proc_config.n c);
  Alcotest.(check (list int)) "works 1..k" [ 1; 2; 3; 4 ]
    (List.init 4 (Proc_config.work c))

let test_uniform () =
  let c = Proc_config.uniform ~n:3 ~work:5 ~buffer:8 () in
  Alcotest.(check int) "k" 5 (Proc_config.k c);
  Alcotest.(check (list int)) "works" [ 5; 5; 5 ]
    (List.init 3 (Proc_config.work c))

let test_bimodal () =
  let c =
    Proc_config.bimodal ~n:8 ~cheap:1 ~expensive:20 ~buffer:16 ()
  in
  (* default expensive_ports = n/4 = 2 *)
  Alcotest.(check (list int)) "works" [ 1; 1; 1; 1; 1; 1; 20; 20 ]
    (List.init 8 (Proc_config.work c));
  let c = Proc_config.bimodal ~n:4 ~cheap:2 ~expensive:9 ~expensive_ports:3 ~buffer:8 () in
  Alcotest.(check (list int)) "explicit split" [ 2; 9; 9; 9 ]
    (List.init 4 (Proc_config.work c));
  match Proc_config.bimodal ~n:2 ~cheap:1 ~expensive:4 ~expensive_ports:3 ~buffer:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too many expensive ports accepted"

let test_geometric () =
  let c = Proc_config.geometric ~n:5 ~buffer:16 () in
  Alcotest.(check (list int)) "powers of two" [ 1; 2; 4; 8; 16 ]
    (List.init 5 (Proc_config.work c));
  let c = Proc_config.geometric ~n:3 ~base:3 ~buffer:16 () in
  Alcotest.(check (list int)) "base 3" [ 1; 3; 9 ]
    (List.init 3 (Proc_config.work c));
  match Proc_config.geometric ~n:3 ~base:1 ~buffer:16 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "base 1 accepted"

let test_inverse_work_sum () =
  let c = Proc_config.contiguous ~k:4 ~buffer:8 () in
  Alcotest.(check (float 1e-9)) "Z = H_4" (Smbm_prelude.Harmonic.h 4)
    (Proc_config.inverse_work_sum c)

let test_value_make () =
  let c = Value_config.make ~ports:3 ~max_value:7 ~buffer:12 ~speedup:2 () in
  Alcotest.(check int) "n" 3 (Value_config.n c);
  Alcotest.(check int) "k" 7 (Value_config.k c);
  Alcotest.(check int) "speedup" 2 c.Value_config.speedup

let test_value_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "ports" (fun () ->
      Value_config.make ~ports:0 ~max_value:1 ~buffer:1 ());
  expect_invalid "max_value" (fun () ->
      Value_config.make ~ports:1 ~max_value:0 ~buffer:1 ());
  expect_invalid "buffer" (fun () ->
      Value_config.make ~ports:1 ~max_value:1 ~buffer:0 ())

let test_arrival () =
  let a = Arrival.make ~dest:3 () in
  Alcotest.(check int) "default value" 1 a.Arrival.value;
  (match Arrival.make ~dest:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative dest accepted");
  Alcotest.(check bool) "equal" true
    (Arrival.equal (Arrival.make ~dest:1 ~value:2 ())
       (Arrival.make ~dest:1 ~value:2 ()));
  Alcotest.(check bool) "not equal" false
    (Arrival.equal (Arrival.make ~dest:1 ()) (Arrival.make ~dest:2 ()))

let suite =
  [
    Alcotest.test_case "proc make" `Quick test_proc_make;
    Alcotest.test_case "proc validation" `Quick test_proc_validation;
    Alcotest.test_case "proc defensive copy" `Quick test_proc_copies_works;
    Alcotest.test_case "contiguous configuration" `Quick test_contiguous;
    Alcotest.test_case "uniform configuration" `Quick test_uniform;
    Alcotest.test_case "bimodal configuration" `Quick test_bimodal;
    Alcotest.test_case "geometric configuration" `Quick test_geometric;
    Alcotest.test_case "inverse work sum" `Quick test_inverse_work_sum;
    Alcotest.test_case "value make" `Quick test_value_make;
    Alcotest.test_case "value validation" `Quick test_value_validation;
    Alcotest.test_case "arrival spec" `Quick test_arrival;
  ]
