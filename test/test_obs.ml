(* The observability layer: JSON codec, event round-trips, ring-buffer
   recording, the metrics registry, and — the load-bearing
   property — trace determinism across job counts with zero observer
   effect on results. *)

open Smbm_obs
open Smbm_sim

(* --- Json --- *)

let test_json_obj_and_parse () =
  let line =
    Json.obj
      [
        ("ev", Json.Str "arrival");
        ("slot", Json.Int 7);
        ("ok", Json.Bool true);
        ("x", Json.Float 1.5);
      ]
  in
  match Json.parse_flat line with
  | Error msg -> Alcotest.fail msg
  | Ok fields ->
    Alcotest.(check int) "field count" 4 (List.length fields);
    Alcotest.(check bool) "ev" true (List.assoc "ev" fields = Json.Str "arrival");
    Alcotest.(check bool) "slot" true (List.assoc "slot" fields = Json.Int 7);
    Alcotest.(check bool) "ok" true (List.assoc "ok" fields = Json.Bool true);
    Alcotest.(check bool) "x" true (List.assoc "x" fields = Json.Float 1.5)

let test_json_escapes_round_trip () =
  let tricky = "a\"b\\c\nd\te\r" ^ String.make 1 '\x01' in
  let line = Json.obj [ ("s", Json.Str tricky) ] in
  match Json.parse_flat line with
  | Error msg -> Alcotest.fail msg
  | Ok [ ("s", Json.Str s) ] -> Alcotest.(check string) "escaped string" tricky s
  | Ok _ -> Alcotest.fail "unexpected shape"

let test_json_rejects_garbage () =
  let bad =
    [
      "";
      "{";
      "{}x";
      "{\"a\":1,\"a\":2}" (* duplicate key *);
      "{\"a\":{}}" (* nested *);
      "{\"a\":[1]}" (* array *);
      "{\"a\":}";
      "not json";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse_flat s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    bad

(* --- Event --- *)

let all_kinds =
  [
    Event.Arrival { dest = 3 };
    Event.Accept { dest = 0 };
    Event.Push_out { victim = 2; dest = 5; lost = 3 };
    Event.Drop { dest = 1; value = 6 };
    Event.Transmit { dest = 4; value = 9; latency = 17 };
    Event.Transmit_bulk { dest = -1; count = 3; value = 12 };
    Event.Flush { count = 7 };
    Event.Slot_end { occupancy = 42 };
    Event.Reconfig { what = "policy"; target = "LQD" };
    Event.Reconfig { what = "buffer"; target = "128" };
    Event.Health { rule = "p99_slot_time"; tripped = true; reason = "over" };
    Event.Health { rule = "shed_rate"; tripped = false; reason = "recovered" };
    Event.Truncated { evicted = 19 };
  ]

let test_event_round_trip () =
  List.iter
    (fun kind ->
      let ev = Event.make ~src:"x=4/LWD" ~slot:123 kind in
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> Alcotest.(check bool) (Event.kind_name kind) true (ev = ev')
      | Error msg -> Alcotest.fail msg)
    all_kinds

let test_event_rejects_malformed () =
  let bad =
    [
      {|{"ev":"warp","slot":0,"src":"a"}|} (* unknown kind *);
      {|{"ev":"arrival","slot":0,"src":"a"}|} (* missing dest *);
      {|{"ev":"arrival","slot":-1,"src":"a","dest":0}|} (* negative slot *);
      {|{"ev":"arrival","slot":0,"src":"a","dest":0,"junk":1}|} (* extra *);
      {|{"ev":"arrival","slot":"0","src":"a","dest":0}|} (* ill-typed *);
      {|{"slot":0,"src":"a","dest":0}|} (* no ev *);
      {|{"ev":"health","slot":0,"src":"a","rule":"r","state":"meh","reason":"x"}|}
      (* bad health state *);
    ]
  in
  List.iter
    (fun s ->
      match Event.of_json s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" s))
    bad

(* --- Event ring (Flight) --- *)

let arrivals_at f ~src slots =
  List.iter (fun slot -> Flight.arrival f ~slot ~src ~dest:0) slots

let test_recorder_eviction_at_capacity () =
  let r = Flight.create ~cap:3 () in
  Alcotest.(check int) "capacity is exact" 3 (Flight.capacity r);
  arrivals_at r ~src:(Flight.intern r "w") (List.init 10 Fun.id);
  Alcotest.(check int) "length" 3 (Flight.length r);
  Alcotest.(check int) "total" 10 (Flight.total r);
  Alcotest.(check int) "dropped" 7 (Flight.dropped r);
  (* Oldest first, and the survivors are the newest three. *)
  Alcotest.(check (list int)) "surviving slots" [ 7; 8; 9 ]
    (List.map (fun (e : Event.t) -> e.Event.slot) (Flight.events r));
  (* dump prepends a truncation marker carrying the eviction count and the
     oldest surviving slot. *)
  (match Flight.dump r with
  | meta :: rest ->
    Alcotest.(check bool) "truncated meta" true
      (meta.Event.kind = Event.Truncated { evicted = 7 });
    Alcotest.(check int) "meta slot = oldest survivor" 7 meta.Event.slot;
    Alcotest.(check bool) "dump tail = events" true (rest = Flight.events r)
  | [] -> Alcotest.fail "empty dump");
  Flight.clear r;
  Alcotest.(check int) "cleared" 0 (Flight.length r)

let test_recorder_scope_prefixes_src () =
  let r = Flight.create ~scope:"x=8" ~cap:4 () in
  Flight.drop r ~slot:0 ~src:(Flight.intern r "LWD") ~dest:1 ~value:1;
  match Flight.events r with
  | [ e ] -> Alcotest.(check string) "src" "x=8/LWD" e.Event.src
  | _ -> Alcotest.fail "expected one event"

(* Wrap-around attribution across a clear: the truncation marker must
   describe only the post-clear life of the ring — eviction count reset,
   slot pointing at the new oldest survivor, no stale marker while the
   refilled ring still holds everything. *)
let test_recorder_truncation_after_clear () =
  let r = Flight.create ~cap:4 () in
  let src = Flight.intern r "w" in
  arrivals_at r ~src (List.init 10 Fun.id);
  Alcotest.(check int) "pre-clear dropped" 6 (Flight.dropped r);
  Flight.clear r;
  Alcotest.(check int) "cleared total" 0 (Flight.total r);
  arrivals_at r ~src [ 100; 101; 102 ];
  (* Under capacity again: a dump carries no marker at all. *)
  Alcotest.(check (list int)) "no marker under capacity" [ 100; 101; 102 ]
    (List.map (fun (e : Event.t) -> e.Event.slot) (Flight.dump r));
  arrivals_at r ~src [ 103; 104; 105 ];
  match Flight.dump r with
  | meta :: rest ->
    Alcotest.(check bool) "post-clear eviction count" true
      (meta.Event.kind = Event.Truncated { evicted = 2 });
    Alcotest.(check int) "post-clear oldest survivor" 102 meta.Event.slot;
    Alcotest.(check (list int)) "post-clear survivors" [ 102; 103; 104; 105 ]
      (List.map (fun (e : Event.t) -> e.Event.slot) rest)
  | [] -> Alcotest.fail "empty dump"

(* --- Json floats: exact round-trip --- *)

let float_eq a b =
  (Float.is_nan a && Float.is_nan b) || Int64.bits_of_float a = Int64.bits_of_float b

let test_json_float_specials_round_trip () =
  List.iter
    (fun v ->
      let line = Json.obj [ ("x", Json.Float v) ] in
      match Json.parse_flat line with
      | Error msg -> Alcotest.failf "%s: %s" line msg
      | Ok [ ("x", Json.Float v') ] ->
        Alcotest.(check bool) (Printf.sprintf "%h via %s" v line) true
          (float_eq v v')
      | Ok _ -> Alcotest.failf "%s: unexpected shape" line)
    [
      0.0; -0.0; 1.5; -1.5; 0.1; infinity; neg_infinity; nan; 1e308; -1e308;
      4e-324 (* smallest subnormal *); max_float; min_float; 3.14159265358979312;
    ]

let prop_json_float_exact_round_trip =
  Qc.to_alcotest
    (QCheck2.Test.make ~name:"json float round-trips bit-exactly" ~count:1000
       QCheck2.Gen.(
         oneof
           [
             float;
             oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 1e22; 1e-7 ];
             (* full-precision doubles: 17 significant digits needed *)
             map Int64.float_of_bits int64;
           ])
       (fun v ->
         let line = Json.obj [ ("x", Json.Float v) ] in
         match Json.parse_flat line with
         | Ok [ ("x", Json.Float v') ] -> float_eq v v'
         | Ok _ | Error _ -> false))

(* --- Registry --- *)

let test_registry_counters_and_snapshot () =
  let reg = Registry.create () in
  let c = Registry.counter reg "hits" in
  Registry.incr c;
  Registry.add c 4;
  Alcotest.(check int) "counter" 5 (Registry.counter_value c);
  (* Re-registration returns the same instrument. *)
  Registry.incr (Registry.counter reg "hits");
  Alcotest.(check int) "shared" 6 (Registry.counter_value c);
  (match Registry.add c (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative counter add accepted");
  (match Registry.gauge reg "hits" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  let h = Registry.histogram reg "lat" in
  Registry.observe h 2.0;
  Registry.observe h 4.0;
  let names = List.map fst (Registry.snapshot reg) in
  Alcotest.(check (list string)) "sorted names" [ "hits"; "lat" ] names;
  let lines = Registry.to_jsonl ~labels:[ ("run", "t") ] reg in
  Alcotest.(check int) "jsonl lines" 2 (List.length lines);
  List.iter
    (fun line ->
      match Smbm_obs.Json.parse_flat line with
      | Ok fields ->
        Alcotest.(check bool) "label present" true
          (List.assoc "run" fields = Smbm_obs.Json.Str "t")
      | Error msg -> Alcotest.fail msg)
    lines

let test_registry_summary_edge_cases () =
  (* Histogram summaries at the degenerate sizes: an empty histogram
     reports all-zero quantiles, a single observation reports itself as
     every quantile (not an interpolation below it). *)
  let reg = Registry.create () in
  let h = Registry.histogram reg "lat" in
  (match Registry.snapshot reg with
  | [ ("lat", Registry.Summary { n; p50; p95; p99; max; _ }) ] ->
    Alcotest.(check int) "empty n" 0 n;
    List.iter
      (fun (label, v) -> Alcotest.(check (float 1e-9)) label 0.0 v)
      [ ("empty p50", p50); ("empty p95", p95); ("empty p99", p99);
        ("empty max", max) ]
  | _ -> Alcotest.fail "unexpected empty snapshot shape");
  Registry.observe h 42.0;
  match Registry.snapshot reg with
  | [ ("lat", Registry.Summary { n; mean; p50; p95; p99; max; _ }) ] ->
    Alcotest.(check int) "single n" 1 n;
    List.iter
      (fun (label, v) -> Alcotest.(check (float 1e-9)) label 42.0 v)
      [ ("single mean", mean); ("single p50", p50); ("single p95", p95);
        ("single p99", p99); ("single max", max) ]
  | _ -> Alcotest.fail "unexpected single snapshot shape"

let test_registry_snapshot_buckets () =
  (* Summaries carry the histogram's full bucket shape, and the JSONL line
     adds the bucket fields without disturbing the old quantile keys. *)
  let reg = Registry.create () in
  let h = Registry.histogram reg "lat" in
  List.iter (Registry.observe h) [ 2.0; 4.0; 4.0; 900.0 ];
  (match Registry.snapshot reg with
  | [ ("lat", Registry.Summary { n; buckets_per_decade; buckets; _ }) ] ->
    let hist = Registry.histogram_values h in
    Alcotest.(check int) "n" 4 n;
    Alcotest.(check int) "bpd matches the histogram"
      (Smbm_prelude.Histogram.buckets_per_decade hist)
      buckets_per_decade;
    Alcotest.(check (list (pair int int)))
      "buckets match the histogram"
      (Smbm_prelude.Histogram.buckets hist)
      buckets;
    Alcotest.(check int) "bucket counts sum to n" n
      (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets)
  | _ -> Alcotest.fail "unexpected snapshot shape");
  match Registry.to_jsonl reg with
  | [ line ] -> (
    match Json.parse_flat line with
    | Ok fields ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
        [ "count"; "mean"; "p50"; "p95"; "p99"; "max"; "buckets_per_decade";
          "buckets" ];
      (match List.assoc "buckets" fields with
      | Json.Str s ->
        Alcotest.(check bool) "index:count pairs" true (String.contains s ':')
      | _ -> Alcotest.fail "buckets not string-encoded")
    | Error msg -> Alcotest.fail msg)
  | lines ->
    Alcotest.fail (Printf.sprintf "expected 1 line, got %d" (List.length lines))

(* The slot loop's forms: a gauge set from an int and a histogram fed
   integer nanoseconds read back exactly what the float forms record. *)
let test_int_entry_points () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "ring_occupancy" in
  Registry.set_int g 7;
  Alcotest.(check (float 0.0)) "set_int" 7.0 (Registry.gauge_value g);
  let h1 = Registry.histogram reg "a_us"
  and h2 = Registry.histogram reg "b_us" in
  List.iter
    (fun ns ->
      Registry.observe_scaled h1 ns 1e-3;
      Registry.observe h2 (float_of_int ns *. 1e-3))
    [ 0; 999; 1_000; 12_345; 9_876_543 ];
  let summary name =
    match List.assoc name (Registry.snapshot reg) with
    | Registry.Summary s -> (s.n, s.mean, s.p50, s.p99, s.max, s.buckets)
    | _ -> Alcotest.fail "not a histogram"
  in
  Alcotest.(check bool) "observe_scaled = observe" true
    (summary "a_us" = summary "b_us")

let test_registry_delta_rates () =
  (* Two cumulative registry snapshots dt apart diff into counter rates and
     a windowed distribution — the stats-socket client's whole trick. *)
  let reg = Registry.create () in
  let c = Registry.counter reg "arrivals" in
  let g = Registry.gauge reg "occupancy" in
  let h = Registry.histogram reg "lat" in
  Registry.add c 100;
  Registry.set g 5.0;
  List.iter (Registry.observe h) [ 10.0; 10.0 ];
  let earlier = Registry.snapshot reg in
  Registry.add c 50;
  Registry.set g 9.0;
  List.iter (Registry.observe h) [ 1000.0; 1000.0; 1000.0 ];
  let later = Registry.snapshot reg in
  let d = Registry.Delta.diff ~dt:5.0 ~earlier ~later in
  Alcotest.(check (option int)) "counter delta" (Some 50)
    (Registry.Delta.delta d "arrivals");
  Alcotest.(check (option (float 1e-9))) "counter rate" (Some 10.0)
    (Registry.Delta.rate d "arrivals");
  Alcotest.(check (option int)) "gauges are skipped" None
    (Registry.Delta.delta d "occupancy");
  Alcotest.(check (option int)) "interval observation count" (Some 3)
    (Registry.Delta.hist_count d "lat");
  (match Registry.Delta.quantile d "lat" 0.5 with
  | Some q ->
    (* The cumulative p50 is ~10us; the interval's is all new mass. *)
    Alcotest.(check bool) "interval median is the new mass" true (q > 500.0)
  | None -> Alcotest.fail "no interval quantile");
  (* An instrument missing from [earlier] diffs against zero. *)
  let d0 = Registry.Delta.diff ~dt:2.0 ~earlier:[] ~later in
  Alcotest.(check (option int)) "missing earlier diffs vs zero" (Some 150)
    (Registry.Delta.delta d0 "arrivals");
  (* A racy regression clamps to zero rather than going negative. *)
  let dneg = Registry.Delta.diff ~dt:2.0 ~earlier:later ~later:earlier in
  Alcotest.(check (option int)) "regression clamps" (Some 0)
    (Registry.Delta.delta dneg "arrivals");
  Alcotest.(check (option int)) "bucket regression clamps" (Some 0)
    (Registry.Delta.hist_count dneg "lat");
  match Registry.Delta.diff ~dt:0.0 ~earlier ~later with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dt <= 0 accepted"

(* --- Progress --- *)

let test_progress_bar () =
  Alcotest.(check string) "empty" "[..........]" (Progress.bar ~width:10 0.0);
  Alcotest.(check string) "full" "[##########]" (Progress.bar ~width:10 1.0);
  Alcotest.(check string) "half" "[#####.....]" (Progress.bar ~width:10 0.5);
  Alcotest.(check string) "clamped below" "[..........]"
    (Progress.bar ~width:10 (-3.0));
  Alcotest.(check string) "clamped above" "[##########]"
    (Progress.bar ~width:10 7.0)

(* --- Engine-level: events match metrics, recording changes nothing --- *)

let small_base =
  {
    Sweep.default_base with
    Sweep.k = 4;
    buffer = 8;
    slots = 400;
    flush_every = Some 100;
    mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = 10 };
  }

let count kind_name events =
  List.length
    (List.filter
       (fun (e : Event.t) -> Event.kind_name e.Event.kind = kind_name)
       events)

let test_engine_events_match_metrics () =
  let config = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
  let ring = Flight.create ~cap:65_536 () in
  let inst =
    Engine.Proc.instance ~events:ring config (Smbm_core.P_lwd.make config)
  in
  let workload =
    Smbm_traffic.Scenario.proc_workload
      ~mmpp:small_base.Sweep.mmpp ~config ~load:2.0 ~seed:11 ()
  in
  Experiment.run
    ~params:{ Experiment.slots = 400; flush_every = Some 100; check_every = None }
    ~workload [ inst ];
  let m = inst.Instance.metrics in
  Alcotest.(check int) "ring unevicted" 0 (Flight.dropped ring);
  let events = Flight.events ring in
  Alcotest.(check int) "arrivals" (Metrics.arrivals m) (count "arrival" events);
  Alcotest.(check int) "accepts" (Metrics.accepted m) (count "accept" events);
  Alcotest.(check int) "drops" (Metrics.dropped m) (count "drop" events);
  Alcotest.(check int) "push-outs" (Metrics.pushed_out m)
    (count "push_out" events);
  Alcotest.(check int) "transmits" (Metrics.transmitted m)
    (count "transmit" events);
  Alcotest.(check int) "slot ends" 400 (count "slot_end" events)

let test_traced_panel_matches_untraced_and_jobs () =
  let xs = [ 2; 4 ] in
  let plain =
    {
      Sweep.panel = { (Sweep.panel 4) with Sweep.xs };
      points =
        List.map
          (fun x ->
            {
              Sweep.x;
              ratios =
                Sweep.run_point ~base:small_base ~model:Sweep.Value_uniform
                  ~axis:Sweep.K ~x ();
            })
          xs;
    }
  in
  let t1 =
    Smbm_par.Par_sweep.run_panel_traced ~jobs:1 ~base:small_base ~xs 4
  in
  let t4 =
    Smbm_par.Par_sweep.run_panel_traced ~jobs:4 ~base:small_base ~xs 4
  in
  (* Zero observer effect: tracing changes no ratio. *)
  Alcotest.(check bool) "outcome = untraced" true
    (t1.Smbm_par.Par_sweep.outcome = plain);
  (* Bit-identical trace for any job count. *)
  let render tr =
    String.concat "\n"
      (List.map Event.to_json tr.Smbm_par.Par_sweep.events)
  in
  Alcotest.(check bool) "events j1 = j4" true (render t1 = render t4);
  Alcotest.(check int) "same eviction" t1.Smbm_par.Par_sweep.dropped_events
    t4.Smbm_par.Par_sweep.dropped_events;
  Alcotest.(check bool) "trace non-empty" true
    (t1.Smbm_par.Par_sweep.events <> [])

(* --- Sink --- *)

let test_sink_file_and_null () =
  Alcotest.(check bool) "null is null" true (Sink.is_null Sink.null);
  Sink.line Sink.null "dropped";
  let path = Filename.temp_file "smbm_obs" ".jsonl" in
  let sink = Sink.file path in
  Sink.event sink (Event.make ~src:"s" ~slot:0 (Event.Arrival { dest = 0 }));
  Sink.line sink "tail";
  Sink.close sink;
  Sink.close sink (* idempotent *);
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "event line parses" true
    (match Event.of_json l1 with Ok _ -> true | Error _ -> false);
  Alcotest.(check string) "raw line" "tail" l2;
  match Sink.line sink "after close" with
  | exception _ -> ()
  | () -> Alcotest.fail "write after close accepted"

let test_sink_open_error_is_typed () =
  (* A bad path is a value, not an exception. *)
  match Sink.open_file "/nonexistent-dir-smbm/metrics.jsonl" with
  | Ok _ -> Alcotest.fail "opened a file under a nonexistent directory"
  | Error e ->
    Alcotest.(check bool) "op is open" true (e.Sink.op = `Open);
    Alcotest.(check string)
      "path reported" "/nonexistent-dir-smbm/metrics.jsonl" e.Sink.path;
    Alcotest.(check bool) "message non-empty" true (e.Sink.message <> "");
    Alcotest.(check bool) "printable" true (Sink.error_to_string e <> "")

let test_sink_write_failure_latches () =
  (* Write through a channel whose descriptor was closed under the sink:
     the first failure latches, later writes are silent no-ops, and
     close_result reports the failure. *)
  let path = Filename.temp_file "smbm_obs" ".jsonl" in
  let oc = open_out path in
  let sink = Sink.of_channel oc in
  Sink.line sink (String.make 100_000 'x');
  close_out oc;
  Sink.line sink (String.make 100_000 'y');
  Sink.line sink "after failure";
  (* no raise *)
  (match Sink.failure sink with
  | None -> Alcotest.fail "expected a latched write failure"
  | Some e ->
    Alcotest.(check bool) "op is write" true (e.Sink.op = `Write);
    Alcotest.(check string) "borrowed channel path" "<channel>" e.Sink.path);
  (match Sink.close_result sink with
  | Ok () -> Alcotest.fail "close_result must surface the latched failure"
  | Error _ -> ());
  Sys.remove path;
  (* The null sink never fails. *)
  Sink.line Sink.null "whatever";
  Alcotest.(check bool) "null never fails" true (Sink.failure Sink.null = None);
  Alcotest.(check bool) "null closes clean" true
    (Sink.close_result Sink.null = Ok ())

let test_sink_open_file_ok_round_trip () =
  let path = Filename.temp_file "smbm_obs" ".jsonl" in
  (match Sink.open_file path with
  | Error e -> Alcotest.fail (Sink.error_to_string e)
  | Ok sink ->
    Sink.line sink "one";
    Alcotest.(check bool) "healthy" true (Sink.failure sink = None);
    (match Sink.close_result sink with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Sink.error_to_string e));
    let ic = open_in path in
    let l = input_line ic in
    close_in ic;
    Alcotest.(check string) "content" "one" l);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "json object round-trip" `Quick test_json_obj_and_parse;
    Alcotest.test_case "json escape round-trip" `Quick
      test_json_escapes_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "event codec round-trip" `Quick test_event_round_trip;
    Alcotest.test_case "event rejects malformed" `Quick
      test_event_rejects_malformed;
    Alcotest.test_case "ring buffer eviction" `Quick
      test_recorder_eviction_at_capacity;
    Alcotest.test_case "recorder scoping" `Quick test_recorder_scope_prefixes_src;
    Alcotest.test_case "recorder truncation after clear" `Quick
      test_recorder_truncation_after_clear;
    Alcotest.test_case "json float specials round-trip" `Quick
      test_json_float_specials_round_trip;
    prop_json_float_exact_round_trip;
    Alcotest.test_case "registry" `Quick test_registry_counters_and_snapshot;
    Alcotest.test_case "registry summary edge cases" `Quick
      test_registry_summary_edge_cases;
    Alcotest.test_case "registry snapshots carry buckets" `Quick
      test_registry_snapshot_buckets;
    Alcotest.test_case "registry delta rates" `Quick test_registry_delta_rates;
    Alcotest.test_case "int entry points match float forms" `Quick
      test_int_entry_points;
    Alcotest.test_case "progress bar" `Quick test_progress_bar;
    Alcotest.test_case "engine events match metrics" `Quick
      test_engine_events_match_metrics;
    Alcotest.test_case "traced panel: no observer effect, j1 = j4" `Slow
      test_traced_panel_matches_untraced_and_jobs;
    Alcotest.test_case "sink" `Quick test_sink_file_and_null;
    Alcotest.test_case "sink open error is typed" `Quick
      test_sink_open_error_is_typed;
    Alcotest.test_case "sink write failure latches" `Quick
      test_sink_write_failure_latches;
    Alcotest.test_case "sink open_file round-trip" `Quick
      test_sink_open_file_ok_round_trip;
  ]
