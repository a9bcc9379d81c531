open Smbm_lowerbounds

(* Each construction, run at reduced parameters, must achieve at least
   [fraction] of its finite-size bound — and never beat the scripted OPT by
   more than discretization noise allows.  These are real simulations, so
   tolerances are deliberate. *)

let check_measured name ~measured ~bound ~fraction =
  if measured < bound *. fraction then
    Alcotest.failf "%s: measured %.3f below %.2f x bound %.3f" name measured
      fraction bound

let test_quota_policy_proc () =
  let open Smbm_core in
  let config = Proc_config.contiguous ~k:2 ~buffer:4 () in
  let sw = Proc_switch.create config in
  let p = Quota.proc ~quota:(fun dest -> if dest = 0 then 1 else 0) () in
  Alcotest.(check bool) "under quota accepts" true
    (Policy.admit p sw ~dest:0 ~value:1 = Decision.accept);
  ignore (Proc_switch.accept sw ~dest:0 ~value:1);
  Alcotest.(check bool) "at quota drops" true
    (Policy.admit p sw ~dest:0 ~value:1 = Decision.drop);
  Alcotest.(check bool) "zero quota drops" true
    (Policy.admit p sw ~dest:1 ~value:1 = Decision.drop)

let test_quota_policy_value () =
  let open Smbm_core in
  let config = Value_config.make ~ports:2 ~max_value:3 ~buffer:2 () in
  let sw = Value_switch.create config in
  let p = Quota.value ~quota:(fun _ -> 1) () in
  Alcotest.(check bool) "accepts" true
    (Policy.admit p sw ~dest:0 ~value:1 = Decision.accept);
  ignore (Value_switch.accept sw ~dest:0 ~value:1);
  ignore (Value_switch.accept sw ~dest:1 ~value:1);
  Alcotest.(check bool) "full buffer drops" true
    (Policy.admit p sw ~dest:0 ~value:3 = Decision.drop)

let test_episodic_shape () =
  let open Smbm_core in
  let burst = [ Arrival.make ~dest:0 (); Arrival.make ~dest:1 () ] in
  let trickle t = if t = 2 then [ Arrival.make ~dest:0 () ] else [] in
  let trace = Runner.episodic ~episode:4 ~burst ~trickle in
  Alcotest.(check int) "burst at slot 0" 2 (List.length (trace 0));
  Alcotest.(check int) "trickle at 2" 1 (List.length (trace 2));
  Alcotest.(check int) "silent at 3" 0 (List.length (trace 3));
  Alcotest.(check int) "burst repeats at 4" 2 (List.length (trace 4))

let test_nhst_construction () =
  let m = Lb_nhst.measure ~k:6 ~buffer:200 ~episodes:2 () in
  check_measured "NHST" ~measured:m.Runner.ratio
    ~bound:(Lb_nhst.finite_bound ~k:6) ~fraction:0.85

let test_nest_construction () =
  let m = Lb_nest.measure ~k:8 ~buffer:80 ~episodes:3 () in
  Alcotest.(check (float 0.01)) "NEST exactly n" 8.0 m.Runner.ratio

let test_nhdt_construction () =
  let m = Lb_nhdt.measure ~k:32 ~buffer:1024 ~episodes:2 () in
  check_measured "NHDT" ~measured:m.Runner.ratio
    ~bound:(Lb_nhdt.finite_bound ~k:32 ~buffer:1024) ~fraction:0.8

let test_nhdt_grows_with_k () =
  let small = Lb_nhdt.measure ~k:16 ~buffer:512 ~episodes:2 () in
  let large = Lb_nhdt.measure ~k:64 ~buffer:2048 ~episodes:2 () in
  Alcotest.(check bool) "ratio grows with k" true
    (large.Runner.ratio > small.Runner.ratio)

let test_lqd_construction () =
  let m = Lb_lqd.measure ~k:36 ~buffer:720 ~episodes:3 () in
  check_measured "LQD" ~measured:m.Runner.ratio
    ~bound:(Lb_lqd.finite_bound ~k:36 ~buffer:720) ~fraction:0.8

let test_lqd_grows_with_k () =
  let small = Lb_lqd.measure ~k:16 ~buffer:512 ~episodes:2 () in
  let large = Lb_lqd.measure ~k:64 ~buffer:1024 ~episodes:2 () in
  Alcotest.(check bool) "ratio grows with k" true
    (large.Runner.ratio > small.Runner.ratio)

let test_bpd_construction () =
  let m = Lb_bpd.measure ~k:8 ~buffer:40 ~slots:800 () in
  check_measured "BPD" ~measured:m.Runner.ratio
    ~bound:(Lb_bpd.finite_bound ~k:8) ~fraction:0.9;
  match Lb_bpd.measure ~k:8 ~buffer:10 ~slots:10 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undersized buffer accepted"

let test_lwd_construction () =
  let m = Lb_lwd.measure ~buffer:600 ~episodes:3 () in
  check_measured "LWD" ~measured:m.Runner.ratio
    ~bound:(Lb_lwd.finite_bound ~buffer:600) ~fraction:0.9;
  (* The whole point: LWD's lower bound stays constant, bounded by 2
     (Theorem 7). *)
  Alcotest.(check bool) "below the 2-competitive upper bound" true
    (m.Runner.ratio < 2.0);
  match Lb_lwd.measure ~buffer:100 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-divisible buffer accepted"

let test_lqd_value_construction () =
  let m = Lb_lqd_value.measure ~k:27 ~buffer:135 ~episodes:3 () in
  check_measured "LQD-value" ~measured:m.Runner.ratio
    ~bound:(Lb_lqd_value.finite_bound ~k:27) ~fraction:0.8

let test_mvd_construction () =
  let m = Lb_mvd.measure ~k:8 ~buffer:8 ~slots:400 () in
  check_measured "MVD" ~measured:m.Runner.ratio
    ~bound:(Lb_mvd.finite_bound ~k:8 ~buffer:8) ~fraction:0.9

let test_mvd_grows_linearly () =
  let small = Lb_mvd.measure ~k:6 ~buffer:6 ~slots:300 () in
  let large = Lb_mvd.measure ~k:12 ~buffer:12 ~slots:300 () in
  (* (m+1)/2 doubles-ish from m=6 to m=12. *)
  Alcotest.(check bool) "linear growth" true
    (large.Runner.ratio > 1.7 *. small.Runner.ratio)

let test_mvd_m_is_min_k_buffer () =
  Alcotest.(check (float 1e-9)) "m limited by buffer" 3.0
    (Lb_mvd.finite_bound ~k:100 ~buffer:5);
  Alcotest.(check (float 1e-9)) "m limited by k" 3.0
    (Lb_mvd.finite_bound ~k:5 ~buffer:100)

let test_mrd_construction () =
  let m = Lb_mrd.measure ~buffer:600 ~episodes:3 () in
  check_measured "MRD" ~measured:m.Runner.ratio
    ~bound:(Lb_mrd.finite_bound ~buffer:600) ~fraction:0.9;
  Alcotest.(check bool) "constant-ish, well below MVD's linear bound" true
    (m.Runner.ratio < 2.0)

let test_greedy_value_construction () =
  let m = Lb_greedy_value.measure ~k:12 ~buffer:48 ~episodes:3 () in
  Alcotest.(check (float 0.05)) "greedy is exactly k-competitive here" 12.0
    m.Runner.ratio

let test_choose_m_clamped () =
  Alcotest.(check bool) "nhdt m within range" true
    (let m = Lb_nhdt.choose_m ~k:2 in
     m >= 1 && m < 2);
  Alcotest.(check int) "lqd m = sqrt k" 8 (Lb_lqd.choose_m ~k:64);
  Alcotest.(check int) "lqd value a = cube root" 3 (Lb_lqd_value.choose_a ~k:27)

let test_registry_complete () =
  Alcotest.(check int) "ten constructions" 10 (List.length Constructions.all);
  Alcotest.(check bool) "find Thm 4" true
    (Option.is_some (Constructions.find ~theorem:"thm 4"));
  Alcotest.(check bool) "find unknown" true
    (Option.is_none (Constructions.find ~theorem:"thm 7"))

let test_bounds_ordering () =
  (* The paper's qualitative story: the non-push-out and value-blind
     policies have fast-growing bounds, LWD and MRD constant ones. *)
  let at k =
    ( Lb_nhst.finite_bound ~k,
      Lb_lqd.finite_bound ~k ~buffer:(k * 16),
      Lb_lwd.finite_bound ~buffer:(k * 16) )
  in
  let nhst64, lqd64, lwd64 = at 64 in
  Alcotest.(check bool) "NHST worst" true (nhst64 > lqd64);
  Alcotest.(check bool) "LQD grows past LWD" true (lqd64 > lwd64);
  Alcotest.(check bool) "LWD constant below 4/3" true (lwd64 < 4.0 /. 3.0)

let suite =
  [
    Alcotest.test_case "quota policy (proc)" `Quick test_quota_policy_proc;
    Alcotest.test_case "quota policy (value)" `Quick test_quota_policy_value;
    Alcotest.test_case "episodic trace shape" `Quick test_episodic_shape;
    Alcotest.test_case "Thm 1: NHST" `Quick test_nhst_construction;
    Alcotest.test_case "Thm 2: NEST" `Quick test_nest_construction;
    Alcotest.test_case "Thm 3: NHDT" `Quick test_nhdt_construction;
    Alcotest.test_case "Thm 3: NHDT grows with k" `Quick test_nhdt_grows_with_k;
    Alcotest.test_case "Thm 4: LQD" `Quick test_lqd_construction;
    Alcotest.test_case "Thm 4: LQD grows with k" `Quick test_lqd_grows_with_k;
    Alcotest.test_case "Thm 5: BPD" `Quick test_bpd_construction;
    Alcotest.test_case "Thm 6: LWD" `Quick test_lwd_construction;
    Alcotest.test_case "Thm 9: LQD value" `Quick test_lqd_value_construction;
    Alcotest.test_case "Thm 10: MVD" `Quick test_mvd_construction;
    Alcotest.test_case "Thm 10: m = min(k, B)" `Quick
      test_mvd_m_is_min_k_buffer;
    Alcotest.test_case "Thm 10: linear growth" `Quick test_mvd_grows_linearly;
    Alcotest.test_case "Thm 11: MRD" `Quick test_mrd_construction;
    Alcotest.test_case "SIV-B: greedy k-competitive" `Quick
      test_greedy_value_construction;
    Alcotest.test_case "optimizer clamping" `Quick test_choose_m_clamped;
    Alcotest.test_case "registry" `Quick test_registry_complete;
    Alcotest.test_case "bounds ordering" `Quick test_bounds_ordering;
  ]
