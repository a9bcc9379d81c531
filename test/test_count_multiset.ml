open Smbm_prelude

let test_basic () =
  let m = Count_multiset.create ~k:5 in
  Alcotest.(check bool) "empty" true (Count_multiset.is_empty m);
  Count_multiset.add m 3;
  Count_multiset.add m 3;
  Count_multiset.add m 1;
  Alcotest.(check int) "size" 3 (Count_multiset.size m);
  Alcotest.(check int) "count 3" 2 (Count_multiset.count m 3);
  Alcotest.(check int) "sum" 7 (Count_multiset.sum m);
  Alcotest.(check int) "min" 1 (Count_multiset.min_key m);
  Alcotest.(check int) "max" 3 (Count_multiset.max_key m)

let test_key_range () =
  let m = Count_multiset.create ~k:4 in
  Alcotest.check_raises "key 0" (Invalid_argument "Count_multiset: key out of range")
    (fun () -> Count_multiset.add m 0);
  Alcotest.check_raises "key k+1"
    (Invalid_argument "Count_multiset: key out of range") (fun () ->
      Count_multiset.add m 5);
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Count_multiset.remove: absent key") (fun () ->
      Count_multiset.remove m 2)

let test_remove_min_max () =
  let m = Count_multiset.create ~k:9 in
  List.iter (Count_multiset.add m) [ 4; 7; 2; 7 ];
  let remove_min () =
    let key = Count_multiset.min_key m in
    Count_multiset.remove m key;
    key
  in
  Alcotest.(check int) "remove min" 2 (remove_min ());
  let key = Count_multiset.max_key m in
  Count_multiset.remove m key;
  Alcotest.(check int) "remove max" 7 key;
  Alcotest.(check int) "size" 2 (Count_multiset.size m);
  Alcotest.(check int) "sum" 11 (Count_multiset.sum m);
  ignore (remove_min () : int);
  ignore (remove_min () : int);
  Alcotest.(check int) "empty min" 0 (Count_multiset.min_key m);
  Alcotest.(check int) "empty max" 0 (Count_multiset.max_key m)

let test_serve_srpt () =
  let m = Count_multiset.create ~k:5 in
  (* {1, 1, 3, 5} with budget 3: the two 1s complete, one 3 becomes a 2. *)
  List.iter (Count_multiset.add m) [ 1; 1; 3; 5 ];
  let sent = Count_multiset.serve_srpt m ~budget:3 in
  Alcotest.(check int) "transmitted" 2 sent;
  Alcotest.(check int) "size" 2 (Count_multiset.size m);
  Alcotest.(check int) "count 2" 1 (Count_multiset.count m 2);
  Alcotest.(check int) "count 5" 1 (Count_multiset.count m 5);
  Alcotest.(check int) "sum" 7 (Count_multiset.sum m)

let test_srpt_stacks_cycles () =
  let m = Count_multiset.create ~k:3 in
  (* One packet of work 2 and budget 2: run-to-completion spends both
     units on it, so it leaves within the call. *)
  Count_multiset.add m 2;
  let sent = Count_multiset.serve_srpt m ~budget:2 in
  Alcotest.(check int) "transmitted in one call" 1 sent;
  Alcotest.(check bool) "empty" true (Count_multiset.is_empty m);
  (* Work 3 with budget 2: the residual 1 carries to the next call. *)
  Count_multiset.add m 3;
  let sent = Count_multiset.serve_srpt m ~budget:2 in
  Alcotest.(check int) "not transmitted yet" 0 sent;
  Alcotest.(check int) "moved to key 1" 1 (Count_multiset.count m 1);
  let sent = Count_multiset.serve_srpt m ~budget:2 in
  Alcotest.(check int) "transmitted on second call" 1 sent;
  Alcotest.(check bool) "empty again" true (Count_multiset.is_empty m)

let test_srpt_budget_exceeds_size () =
  let m = Count_multiset.create ~k:4 in
  List.iter (Count_multiset.add m) [ 1; 2 ];
  let sent = Count_multiset.serve_srpt m ~budget:100 in
  Alcotest.(check int) "every element served" 2 sent;
  Alcotest.(check bool) "empty" true (Count_multiset.is_empty m)

let test_remove_largest () =
  let m = Count_multiset.create ~k:9 in
  List.iter (Count_multiset.add m) [ 9; 1; 5; 9 ];
  let value = Count_multiset.remove_largest m ~budget:3 in
  Alcotest.(check int) "value of 3 largest" 23 value;
  Alcotest.(check int) "left" 1 (Count_multiset.size m);
  Alcotest.(check int) "left key" 1 (Count_multiset.min_key m)

let test_fold_and_clear () =
  let m = Count_multiset.create ~k:5 in
  List.iter (Count_multiset.add m) [ 2; 2; 5 ];
  let pairs =
    Count_multiset.fold (fun acc ~key ~count -> (key, count) :: acc) [] m
  in
  Alcotest.(check (list (pair int int))) "fold ascending" [ (5, 1); (2, 2) ]
    pairs;
  Count_multiset.clear m;
  Alcotest.(check int) "cleared" 0 (Count_multiset.size m);
  Alcotest.(check int) "sum cleared" 0 (Count_multiset.sum m)

(* Property: sum/size/min/max and [serve_srpt]'s completions always agree
   with a sorted-list model under random operations. *)
let prop_model =
  QCheck2.Test.make ~name:"count multiset agrees with sorted-list model"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 10)
        (list
           (oneof
              [
                map (fun v -> `Add v) (int_range 1 10);
                pure `Remove_min;
                pure `Remove_max;
                map (fun b -> `Serve b) (int_range 0 12);
              ])))
    (fun (k, ops) ->
      let m = Count_multiset.create ~k in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Add v ->
            if v <= k then begin
              Count_multiset.add m v;
              model := List.sort compare (v :: !model)
            end
          | `Remove_min -> (
            match !model with
            | [] -> if Count_multiset.min_key m <> 0 then ok := false
            | x :: rest ->
              if Count_multiset.min_key m <> x then ok := false
              else Count_multiset.remove m x;
              model := rest)
          | `Remove_max -> (
            match List.rev !model with
            | [] -> if Count_multiset.max_key m <> 0 then ok := false
            | x :: rest_rev ->
              if Count_multiset.max_key m <> x then ok := false
              else Count_multiset.remove m x;
              model := List.rev rest_rev)
          | `Serve budget ->
            (* Run-to-completion on the smallest key: each element takes
               as many units as it needs before the next gets any. *)
            let rec srpt budget sent = function
              | x :: rest when budget >= x -> srpt (budget - x) (sent + 1) rest
              | x :: rest when budget > 0 -> (sent, (x - budget) :: rest)
              | rest -> (sent, rest)
            in
            let sent, rest = srpt budget 0 !model in
            let got = Count_multiset.serve_srpt m ~budget in
            if got <> sent then ok := false;
            model := List.sort compare rest)
        ops;
      !ok
      && Count_multiset.size m = List.length !model
      && Count_multiset.sum m = List.fold_left ( + ) 0 !model
      && Count_multiset.min_key m
         = (match !model with [] -> 0 | x :: _ -> x)
      && Count_multiset.max_key m
         = (match List.rev !model with [] -> 0 | x :: _ -> x))

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basic;
    Alcotest.test_case "key range validation" `Quick test_key_range;
    Alcotest.test_case "remove min/max" `Quick test_remove_min_max;
    Alcotest.test_case "serve_srpt" `Quick test_serve_srpt;
    Alcotest.test_case "serve_srpt stacks cycles" `Quick
      test_srpt_stacks_cycles;
    Alcotest.test_case "budget exceeds size" `Quick
      test_srpt_budget_exceeds_size;
    Alcotest.test_case "remove_largest" `Quick test_remove_largest;
    Alcotest.test_case "fold and clear" `Quick test_fold_and_clear;
    Qc.to_alcotest prop_model;
  ]
