(* The zero-allocation arrival pipeline: batched slot loop and compact
   trace cache.

   [Workload.next_into] clears the batch it is given, so one batch reused
   across every slot reads the same stream as a fresh batch per slot, for
   any workload.  Generators see slot indices 0, 1, 2, ... exactly once.
   [Experiment.run] fans one batch out to every instance without letting
   them perturb each other.  The sweep trace cache ([Sweep.trace_key] / [materialize_trace] /
   [run_point ?trace]) replays bit-identically, shares exactly the axes
   whose traffic parameters coincide (B and C, not K), and the golden
   panel numbers survive at every job count. *)

open Smbm_core
open Smbm_traffic
open Smbm_sim

let arrival = Alcotest.testable Arrival.pp Arrival.equal

let small_base =
  {
    Sweep.default_base with
    slots = 1_500;
    flush_every = Some 300;
    mmpp = { Scenario.default_mmpp with sources = 20 };
    seed = 11;
  }

(* --- next_into over a reused batch --- *)

(* A random workload, described so it can be built twice with the same
   seeds. *)
type spec =
  | Proc of { sources : int; load : float; seed : int; k : int }
  | Value_uniform of { sources : int; load : float; seed : int; k : int }
  | Value_port of { sources : int; load : float; seed : int; k : int }
  | Fixed of (int * int) list array  (* (dest, value) per slot *)

let build = function
  | Proc { sources; load; seed; k } ->
    let config = Proc_config.contiguous ~k ~buffer:(4 * k) () in
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources }
      ~config ~load ~seed ()
  | Value_uniform { sources; load; seed; k } ->
    let config = Value_config.make ~ports:k ~max_value:k ~buffer:(4 * k) () in
    Scenario.value_uniform_workload
      ~mmpp:{ Scenario.default_mmpp with sources }
      ~config ~load ~seed ()
  | Value_port { sources; load; seed; k } ->
    let config = Value_config.make ~ports:k ~max_value:k ~buffer:(4 * k) () in
    Scenario.value_port_workload
      ~mmpp:{ Scenario.default_mmpp with sources }
      ~config ~load ~seed ()
  | Fixed slots ->
    Workload.of_slots
      (Array.map
         (fun l ->
           List.map (fun (dest, value) -> Arrival.make ~dest ~value ()) l)
         slots)

let spec_gen =
  let open QCheck.Gen in
  let source_params =
    let* sources = 1 -- 8
    and* load = float_range 0.2 3.0
    and* seed = 0 -- 1000
    and* k = 2 -- 9 in
    return (sources, load, seed, k)
  in
  oneof
    [
      map
        (fun (sources, load, seed, k) -> Proc { sources; load; seed; k })
        source_params;
      map
        (fun (sources, load, seed, k) ->
          Value_uniform { sources; load; seed; k })
        source_params;
      map
        (fun (sources, load, seed, k) -> Value_port { sources; load; seed; k })
        source_params;
      (let* slots =
         array_size (1 -- 12)
           (list_size (0 -- 4)
              (let* dest = 0 -- 7 and* value = 1 -- 9 in
               return (dest, value)))
       in
       return (Fixed slots));
    ]

let qc_reused_batch_is_transparent =
  QCheck.Test.make ~count:100 ~name:"reused batch = fresh batch (any workload)"
    (QCheck.make spec_gen)
    (fun spec ->
      let fresh = build spec and reused = build spec in
      (* Stale contents must never leak into the next slot. *)
      let batch = Arrival_batch.create ~capacity:1 () in
      Arrival_batch.push batch ~dest:0 ~value:99;
      let ok = ref true in
      for _ = 1 to 50 do
        let expect = Slot_list.next fresh in
        Workload.next_into reused batch;
        if not (List.equal Arrival.equal expect (Slot_list.of_batch batch))
        then ok := false
      done;
      !ok)

let test_generator_slot_indices () =
  let seen = ref [] in
  let w =
    Workload.of_fun_into (fun batch i ->
        seen := i :: !seen;
        Arrival_batch.push batch ~dest:(i mod 3) ~value:(i + 1))
  in
  let batch = Arrival_batch.create () in
  for i = 0 to 9 do
    Workload.next_into w batch;
    Alcotest.(check (list arrival))
      (Printf.sprintf "slot %d" i)
      [ Arrival.make ~dest:(i mod 3) ~value:(i + 1) () ]
      (Slot_list.of_batch batch)
  done;
  Alcotest.(check (list int)) "indices 0..9, once each, in order"
    (List.init 10 Fun.id) (List.rev !seen);
  (* A fixed schedule replays literally, then runs dry. *)
  let schedule =
    [|
      [ Arrival.make ~dest:1 (); Arrival.make ~dest:0 ~value:3 () ];
      [];
      [ Arrival.make ~dest:2 ~value:2 () ];
    |]
  in
  let w = Workload.of_slots schedule in
  Array.iteri
    (fun i expect ->
      Alcotest.(check (list arrival))
        (Printf.sprintf "schedule slot %d" i)
        expect (Slot_list.next w))
    schedule;
  for i = 3 to 5 do
    Alcotest.(check (list arrival))
      (Printf.sprintf "slot %d past the end" i)
      [] (Slot_list.next w)
  done

(* --- lockstep fan-out --- *)

let fingerprint (i : Instance.t) =
  let m = i.Instance.metrics in
  ( i.Instance.name,
    ( Metrics.arrivals m,
      Metrics.accepted m,
      Metrics.dropped m,
      Metrics.pushed_out m ),
    (Metrics.transmitted m, Metrics.transmitted_value m, Metrics.flushed m),
    Smbm_prelude.Running_stats.mean (Metrics.latency_stats m) )

(* Every instance reads the one shared batch per slot; none may disturb it
   for the others.  Running all instances together must leave each exactly
   where running it alone on the same traffic does.  The point's workload
   comes from [Sweep.setup]; its instances are built with distributions
   ([Model.instances] at its default, unlike the setup's counters-only
   list), so the fingerprint's mean latency is recorded. *)
let point model =
  let workload, _ = Sweep.setup model small_base in
  (workload, Model.instances (Sweep.to_model model small_base))

let test_lockstep_matches_solo_runs () =
  List.iter
    (fun model ->
      let params =
        {
          Experiment.slots = small_base.Sweep.slots;
          flush_every = small_base.Sweep.flush_every;
          check_every = Some 500;
        }
      in
      let workload, instances = point model in
      Experiment.run ~params ~workload instances;
      List.iteri
        (fun idx together ->
          let workload, fresh = point model in
          let alone = List.nth fresh idx in
          Experiment.run ~params ~workload [ alone ];
          let n1, a1, t1, l1 = fingerprint together
          and n2, a2, t2, l2 = fingerprint alone in
          Alcotest.(check string) "instance order" n1 n2;
          if a1 <> a2 || t1 <> t2 then
            Alcotest.failf "%s: counters diverge between lockstep and solo" n1;
          Alcotest.(check (float 0.0)) (n1 ^ " mean latency") l1 l2)
        instances)
    [ Sweep.Proc; Sweep.Value_uniform; Sweep.Value_port ]

(* --- trace cache --- *)

let test_trace_key_sharing () =
  let base = small_base in
  let key axis x = Sweep.trace_key ~base ~model:Sweep.Proc ~axis ~x in
  (* Swept buffer and speedup never reach the generator: one key per axis. *)
  Alcotest.(check string) "B axis shares" (key Sweep.B 16) (key Sweep.B 1024);
  Alcotest.(check string) "C axis shares" (key Sweep.C 1) (key Sweep.C 4);
  (* k relabels the traffic: every K point differs. *)
  Alcotest.(check bool) "K axis differs" false (key Sweep.K 2 = key Sweep.K 8);
  (* The reference (k, speedup) feeds the intensity derivation. *)
  let other = { base with Sweep.seed = base.Sweep.seed + 1 } in
  Alcotest.(check bool) "seed differs" false
    (key Sweep.B 16 = Sweep.trace_key ~base:other ~model:Sweep.Proc ~axis:Sweep.B ~x:16)

let test_trace_signatures_follow_keys () =
  let base = { small_base with Sweep.slots = 300 } in
  let mat axis x =
    Sweep.materialize_trace ~base ~model:Sweep.Value_uniform ~axis ~x
  in
  let sig_of t = Trace.Compact.signature t in
  (* Same key -> byte-identical traffic. *)
  Alcotest.(check string) "B-axis traces coincide"
    (sig_of (mat Sweep.B 16))
    (sig_of (mat Sweep.B 512));
  Alcotest.(check bool) "K-axis traces differ" false
    (sig_of (mat Sweep.K 2) = sig_of (mat Sweep.K 8))

let test_cached_replay_matches_live () =
  List.iter
    (fun (model, axis, x) ->
      let base = { small_base with Sweep.slots = 800 } in
      let live = Sweep.run_point ~base ~model ~axis ~x () in
      let trace = Sweep.materialize_trace ~base ~model ~axis ~x in
      let cached = Sweep.run_point ~trace ~base ~model ~axis ~x () in
      List.iter2
        (fun (n1, r1) (n2, r2) ->
          Alcotest.(check string) "series" n1 n2;
          Alcotest.(check (float 0.0)) ("ratio " ^ n1) r1 r2)
        live cached)
    [
      (Sweep.Proc, Sweep.B, 32);
      (Sweep.Value_uniform, Sweep.C, 2);
      (Sweep.Value_port, Sweep.K, 4);
    ]

let test_short_trace_rejected () =
  let base = { small_base with Sweep.slots = 200 } in
  let trace =
    Sweep.materialize_trace ~base ~model:Sweep.Proc ~axis:Sweep.B ~x:16
  in
  let grown = { base with Sweep.slots = 400 } in
  match
    Sweep.run_point ~trace ~base:grown ~model:Sweep.Proc ~axis:Sweep.B ~x:16 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "trace shorter than the run accepted"

let test_worth_caching_budget () =
  let worth base =
    Sweep.trace_worth_caching ~base ~model:Sweep.Proc ~axis:Sweep.B ~x:16
  in
  Alcotest.(check bool) "the budget admits a small point" true
    (worth small_base);
  (* Estimating the arrivals generates nothing, so a point far above the
     4M-arrival budget costs no more to reject than a small one. *)
  Alcotest.(check bool) "the budget rejects a point above it" false
    (worth { small_base with Sweep.slots = 1_000_000_000 })

let test_compact_roundtrip () =
  let build () =
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 5 }
      ~config:(Proc_config.contiguous ~k:4 ~buffer:16 ())
      ~load:1.5 ~seed:3 ()
  in
  let compact = Trace.Compact.of_workload (build ()) ~slots:120 in
  (* Replay equals a second live generation, slot by slot. *)
  let live = build () in
  let replayed = Trace.Compact.replay compact in
  for _ = 1 to 120 do
    Alcotest.(check (list arrival)) "replay slot" (Slot_list.next live)
      (Slot_list.next replayed)
  done;
  Alcotest.(check (list arrival)) "empty beyond the end" []
    (Slot_list.next replayed)

(* --- golden panel, every job count --- *)

(* Pinned from the pre-refactor per-slot list pipeline (slots = 2000,
   flushouts every 400, 25 MMPP sources, seed 7, panels 1 and 4 at
   xs = 2,4,8): the batched loop, the trace cache and the parallel runner
   must all reproduce these digits exactly.  Panel 1 sweeps k (distinct
   trace keys), panel 4's B sweep shares one trace across its points. *)
let golden_base =
  {
    Sweep.default_base with
    slots = 2_000;
    flush_every = Some 400;
    mmpp = { Scenario.default_mmpp with sources = 25 };
    seed = 7;
  }

let golden =
  [
    ( 1,
      [
        ( 2,
          [
            ("NHST", 1.265818547); ("NEST", 1.265818547); ("NHDT", 1.265818547);
            ("LQD", 1.265818547); ("BPD", 1.611679454); ("BPD1", 1.327598315);
            ("LWD", 1.265818547);
          ] );
        ( 4,
          [
            ("NHST", 1.151406650); ("NEST", 1.156731757); ("NHDT", 1.178534031);
            ("LQD", 1.156434626); ("BPD", 1.362178517); ("BPD1", 1.187236287);
            ("LWD", 1.150817996);
          ] );
        ( 8,
          [
            ("NHST", 1.189066603); ("NEST", 1.193053892); ("NHDT", 1.237823062);
            ("LQD", 1.189918777); ("BPD", 1.471057295); ("BPD1", 1.247120681);
            ("LWD", 1.183979082);
          ] );
      ] );
    ( 4,
      [
        ( 2,
          [
            ("Greedy", 1.319914206); ("NEST", 1.311690441); ("LQD", 1.000000000);
            ("MVD", 1.000000000); ("MVD1", 1.000000000); ("MRD", 1.000000000);
          ] );
        ( 4,
          [
            ("Greedy", 1.579802469); ("NEST", 1.567110806); ("LQD", 1.000469102);
            ("MVD", 1.013913540); ("MVD1", 1.009339012); ("MRD", 1.000469102);
          ] );
        ( 8,
          [
            ("Greedy", 1.687828415); ("NEST", 1.629185842); ("LQD", 1.007521175);
            ("MVD", 1.012940701); ("MVD1", 1.009964016); ("MRD", 1.006772568);
          ] );
      ] );
  ]

let check_golden outcome expected =
  List.iter2
    (fun (p : Sweep.point) (x, series) ->
      Alcotest.(check int) "x" x p.Sweep.x;
      List.iter2
        (fun (name, ratio) (gname, gratio) ->
          Alcotest.(check string) "series" gname name;
          Alcotest.(check (float 5e-10)) (Printf.sprintf "x=%d %s" x name)
            gratio ratio)
        p.Sweep.ratios series)
    outcome.Sweep.points expected

let test_golden_panels_all_job_counts () =
  List.iter
    (fun (number, expected) ->
      List.iter
        (fun jobs ->
          let outcome =
            Smbm_par.Par_sweep.run_panel ~jobs ~base:golden_base ~xs:[ 2; 4; 8 ]
              number
          in
          check_golden outcome expected)
        [ 0; 1; 4 ])
    golden

let suite =
  [
    Qc.to_alcotest qc_reused_batch_is_transparent;
    Alcotest.test_case "generators see slots in order" `Quick
      test_generator_slot_indices;
    Alcotest.test_case "lockstep = solo runs" `Quick
      test_lockstep_matches_solo_runs;
    Alcotest.test_case "trace keys share B/C, split K" `Quick
      test_trace_key_sharing;
    Alcotest.test_case "trace signatures follow keys" `Quick
      test_trace_signatures_follow_keys;
    Alcotest.test_case "cached replay = live run" `Quick
      test_cached_replay_matches_live;
    Alcotest.test_case "short trace rejected" `Quick test_short_trace_rejected;
    Alcotest.test_case "materialization budget" `Quick
      test_worth_caching_budget;
    Alcotest.test_case "compact trace roundtrip" `Quick test_compact_roundtrip;
    Alcotest.test_case "golden panels at jobs 1 and 4" `Slow
      test_golden_panels_all_job_counts;
  ]
