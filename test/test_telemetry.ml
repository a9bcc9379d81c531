(* The telemetry plane: watchdog hysteresis, the stats-socket protocol
   against synthetic views, the JSON round-trip the remote watcher relies
   on, and — end to end — a daemon answering queries over a real Unix
   socket with zero effect on engine output. *)

open Smbm_core
open Smbm_serve
module Model = Smbm_sim.Model
module Scenario = Smbm_traffic.Scenario
module Trace = Smbm_traffic.Trace
module Health = Smbm_obs.Health
module Registry = Smbm_obs.Registry
module Json = Smbm_obs.Json

let proc_config = Proc_config.contiguous ~k:8 ~buffer:32 ()
let mmpp sources = { Scenario.default_mmpp with sources }

let proc_workload ?(sources = 20) ~seed () =
  Scenario.proc_workload ~mmpp:(mmpp sources) ~config:proc_config ~load:2.0
    ~seed ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let is_err = function
  | [ line ] -> String.length line >= 4 && String.sub line 0 4 = "err "
  | _ -> false

(* --- Health --- *)

let test_health_hysteresis () =
  let verdict = ref Health.Pass in
  let events = ref [] in
  let m =
    Health.create
      ~on_transition:(fun e -> events := e :: !events)
      [
        Health.rule ~name:"r" ~trip_after:2 ~clear_after:2 (fun () -> !verdict);
      ]
  in
  Health.evaluate m;
  Alcotest.(check bool) "healthy at start" false (Health.degraded m);
  verdict := Health.Fail "bad";
  Health.evaluate m;
  Alcotest.(check bool) "one bad window does not trip" false
    (Health.degraded m);
  Health.evaluate m;
  Alcotest.(check bool) "second consecutive trips" true (Health.degraded m);
  Health.evaluate m;
  Alcotest.(check int) "transitions only: trip reported once" 1
    (List.length !events);
  verdict := Health.Pass;
  Health.evaluate m;
  Alcotest.(check bool) "one good window does not clear" true
    (Health.degraded m);
  Health.evaluate m;
  Alcotest.(check bool) "second consecutive clears" false (Health.degraded m);
  Alcotest.(check int) "clear transition reported" 2 (List.length !events);
  (match !events with
  | [ clear; trip ] ->
    Alcotest.(check bool) "trip event tripped" true trip.Health.tripped;
    Alcotest.(check string) "trip carries the reason" "bad" trip.Health.reason;
    Alcotest.(check bool) "clear event not tripped" false clear.Health.tripped
  | _ -> Alcotest.fail "expected exactly two transitions");
  match Health.states m with
  | [ ("r", s) ] ->
    Alcotest.(check bool) "state cleared" false s.Health.v_tripped;
    Alcotest.(check int) "lifetime trips" 1 s.Health.v_trips
  | _ -> Alcotest.fail "unexpected states shape"

let test_health_no_flap_on_alternation () =
  (* An alternating verdict never reaches two consecutive failures, so the
     default hysteresis never trips — one bad window cannot flap. *)
  let flip = ref false in
  let m =
    Health.create
      [
        Health.rule ~name:"r" (fun () ->
            flip := not !flip;
            if !flip then Health.Fail "noisy" else Health.Pass);
      ]
  in
  for _ = 1 to 20 do
    Health.evaluate m
  done;
  Alcotest.(check bool) "never tripped" false (Health.degraded m)

let test_health_trip_after_one () =
  let verdict = ref (Health.Fail "exact") in
  let m =
    Health.create
      [
        Health.rule ~name:"conservation" ~trip_after:1 ~clear_after:1 (fun () ->
            !verdict);
      ]
  in
  Health.evaluate m;
  Alcotest.(check bool) "exact condition trips immediately" true
    (Health.degraded m);
  verdict := Health.Pass;
  Health.evaluate m;
  Alcotest.(check bool) "and clears immediately" false (Health.degraded m);
  match Health.rule ~name:"bad" ~trip_after:0 (fun () -> Health.Pass) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "trip_after < 1 accepted"

(* --- the protocol, against a synthetic view --- *)

let synthetic_view () =
  let reg = Registry.create () in
  let c = Registry.counter reg "arrivals" in
  let g = Registry.gauge reg "occupancy_mean" in
  let h = Registry.histogram reg "latency" in
  Registry.add c 1234;
  Registry.set g 5.5;
  List.iter (Registry.observe h) [ 1.0; 2.0; 4.0; 800.0 ];
  let server_reg = Registry.create () in
  let sh = Registry.histogram server_reg "stage/engine_us" in
  List.iter (Registry.observe sh) [ 10.0; 20.0; 30.0 ];
  let server = Registry.snapshot server_reg in
  let monitor =
    Health.create [ Health.rule ~name:"shed_rate" (fun () -> Health.Pass) ]
  in
  Health.evaluate monitor;
  {
    Telemetry.at = 12.5;
    slot = 4200;
    uptime = 12.5;
    policy = "LQD";
    buffer = 64;
    ring_occupancy = 3;
    ring_capacity = 64;
    ring_max = 17;
    shed_slots = 0;
    shed_packets = 0;
    window =
      {
        Telemetry.w_span = 10.0;
        slots_per_sec = 420.0;
        arrivals_per_sec = 1650.5;
        accepted_per_sec = 1600.0;
        drops_per_sec = 50.5;
        shed_slots_per_sec = 0.0;
        p50_us = 12.0;
        p95_us = 40.0;
        p99_us = 85.0;
      };
    engine = Registry.snapshot reg;
    server;
    spans = Telemetry.stage_aggregates server;
    health = Health.states monitor;
    degraded = false;
  }

let test_handle_protocol () =
  Alcotest.(check bool) "err before first publish" true
    (is_err (Telemetry.handle None "stats"));
  let v = Some (synthetic_view ()) in
  let stats = Telemetry.handle v "stats" in
  Alcotest.(check bool) "stats is a multi-line summary" true
    (List.length stats >= 4);
  Alcotest.(check bool) "stats mentions the policy" true
    (List.exists (fun l -> contains l "LQD") stats);
  Alcotest.(check bool) "stats mentions health" true
    (List.exists (fun l -> contains l "health ok") stats);
  (match Telemetry.handle v "health" with
  | first :: rules ->
    Alcotest.(check string) "health leads with the verdict" "ok" first;
    Alcotest.(check int) "one line per rule" 1 (List.length rules);
    Alcotest.(check bool) "rule line names the rule" true
      (contains (List.hd rules) "shed_rate")
  | [] -> Alcotest.fail "empty health answer");
  (match Telemetry.handle v "spans" with
  | [ line ] ->
    Alcotest.(check bool) "stage profile line" true
      (contains line "engine: count 3")
  | lines ->
    Alcotest.fail (Printf.sprintf "expected 1 span line, got %d"
                     (List.length lines)));
  Alcotest.(check bool) "unknown command errors" true
    (is_err (Telemetry.handle v "bogus"));
  Alcotest.(check bool) "empty command errors" true (is_err (Telemetry.handle v ""));
  Alcotest.(check bool) "whitespace is trimmed" false
    (is_err (Telemetry.handle v "  stats  "))

let test_stats_json_round_trip () =
  let v = synthetic_view () in
  match Telemetry.handle (Some v) "stats json" with
  | [ line ] -> (
    match Json.parse_flat line with
    | Error msg -> Alcotest.fail msg
    | Ok fields ->
      Alcotest.(check bool) "slot" true (List.assoc "slot" fields = Json.Int 4200);
      Alcotest.(check bool) "policy" true
        (List.assoc "policy" fields = Json.Str "LQD");
      Alcotest.(check bool) "degraded" true
        (List.assoc "degraded" fields = Json.Bool false);
      (match List.assoc "window.arrivals_per_sec" fields with
      | Json.Float f -> Alcotest.(check (float 1e-9)) "window rate" 1650.5 f
      | _ -> Alcotest.fail "window rate not a float");
      (match List.assoc "health/shed_rate" fields with
      | Json.Str s -> Alcotest.(check string) "health field" "ok" s
      | _ -> Alcotest.fail "health field missing");
      (* The engine samples reconstruct exactly — %.17g floats round-trip,
         and bucket shapes ride the compact string — which is what lets a
         remote watcher run Registry.Delta over two polls. *)
      let rebuilt = Telemetry.samples_of_json ~prefix:"engine" fields in
      Alcotest.(check int) "sample count"
        (List.length v.Telemetry.engine)
        (List.length rebuilt);
      List.iter2
        (fun (n0, s0) (n1, s1) ->
          Alcotest.(check string) "sample name" n0 n1;
          Alcotest.(check bool) (n0 ^ " survives the round-trip") true
            (s0 = s1))
        v.Telemetry.engine rebuilt)
  | lines ->
    Alcotest.fail
      (Printf.sprintf "stats json must be one line, got %d" (List.length lines))

let test_stage_aggregates () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "stage/flush_us" in
  List.iter (Registry.observe h) [ 100.0; 300.0 ];
  (* Non-stage instruments are ignored by the lift. *)
  Registry.incr (Registry.counter reg "shed_slots");
  ignore (Registry.histogram reg "slot_time_us");
  match Telemetry.stage_aggregates (Registry.snapshot reg) with
  | [ ("flush", a) ] ->
    Alcotest.(check int) "count" 2 a.Telemetry.count;
    Alcotest.(check (float 1e-12)) "mean back to seconds" 200e-6
      a.Telemetry.wall_mean;
    Alcotest.(check (float 1e-12)) "wall = n * mean" 400e-6 a.Telemetry.wall;
    Alcotest.(check (float 1e-12)) "max back to seconds" 300e-6
      a.Telemetry.wall_max
  | aggs ->
    Alcotest.fail
      (Printf.sprintf "expected flush only, got %d aggregates"
         (List.length aggs))

(* --- the window --- *)

(* The daemon's two registries at one instant, as [publish] snapshots
   them: engine counters, and the server's slot counter, shed mirror and
   slot-time histogram. *)
let registries () =
  let e = Registry.create () and s = Registry.create () in
  let add reg name n = Registry.add (Registry.counter reg name) n in
  let slot_us = Registry.histogram s ~max_value:1e7 "slot_time_us" in
  let record ~arrivals ~accepted ~slots ~shed slot_times =
    add e "arrivals" arrivals;
    add e "accepted" accepted;
    add e "dropped" (arrivals - accepted);
    add s "slots" slots;
    add s "shed_slots" shed;
    List.iter (Registry.observe slot_us) slot_times
  in
  let snap () = (Registry.snapshot e, Registry.snapshot s) in
  (record, snap)

let view_at ~uptime (engine, server) =
  { (synthetic_view ()) with Telemetry.uptime; engine; server }

let test_window_stats () =
  let record, snap = registries () in
  record ~arrivals:100 ~accepted:90 ~slots:40 ~shed:1 [ 5.0; 5.0; 7.0 ];
  let earlier = snap () in
  let window_samples = [ 200.0; 300.0; 12.0; 9000.0; 40.0 ] in
  record ~arrivals:50 ~accepted:30 ~slots:20 ~shed:3 window_samples;
  let later_engine, later_server = snap () in
  let w =
    Telemetry.window_stats
      ~base:(Some (view_at ~uptime:2.0 earlier))
      ~uptime:7.0 ~engine:later_engine ~server:later_server
  in
  let close = Alcotest.(check (float 1e-12)) in
  close "span is the real dt" 5.0 w.Telemetry.w_span;
  close "slots: server delta / dt" 4.0 w.Telemetry.slots_per_sec;
  close "arrivals: engine delta / dt" 10.0 w.Telemetry.arrivals_per_sec;
  close "accepted" 6.0 w.Telemetry.accepted_per_sec;
  close "dropped" 4.0 w.Telemetry.drops_per_sec;
  close "shed slots: server delta / dt" 0.6 w.Telemetry.shed_slots_per_sec;
  (* The quantiles are those of the window's own samples, bucket for
     bucket, not of the cumulative histogram. *)
  let own = Smbm_prelude.Histogram.create ~max_value:1e7 () in
  List.iter (Smbm_prelude.Histogram.add own) window_samples;
  let expect q =
    Smbm_prelude.Histogram.quantile_of_buckets
      ~buckets_per_decade:(Smbm_prelude.Histogram.buckets_per_decade own)
      (Smbm_prelude.Histogram.buckets own) q
  in
  Alcotest.(check (float 0.0)) "p50 of the window" (expect 0.5) w.Telemetry.p50_us;
  Alcotest.(check (float 0.0)) "p95 of the window" (expect 0.95) w.Telemetry.p95_us;
  Alcotest.(check (float 0.0)) "p99 of the window" (expect 0.99) w.Telemetry.p99_us;
  (* No base: the run start, at uptime 0 with every counter zero. *)
  let w0 =
    Telemetry.window_stats ~base:None ~uptime:7.0 ~engine:later_engine
      ~server:later_server
  in
  close "start-of-run span" 7.0 w0.Telemetry.w_span;
  close "start-of-run rate is cumulative / uptime" (150.0 /. 7.0)
    w0.Telemetry.arrivals_per_sec;
  close "start-of-run slots" (60.0 /. 7.0) w0.Telemetry.slots_per_sec;
  (* A base ahead of the current snapshots (a racy pair) clamps to zero. *)
  let back =
    Telemetry.window_stats
      ~base:(Some (view_at ~uptime:2.0 (later_engine, later_server)))
      ~uptime:7.0 ~engine:(fst earlier) ~server:(snd earlier)
  in
  close "regression clamps: rate" 0.0 back.Telemetry.arrivals_per_sec;
  close "regression clamps: slots" 0.0 back.Telemetry.slots_per_sec;
  close "regression clamps: quantile" 0.0 back.Telemetry.p99_us;
  (* dt <= 0 is an empty window, never a raise. *)
  List.iter
    (fun uptime ->
      let e =
        Telemetry.window_stats
          ~base:(Some (view_at ~uptime:7.0 earlier))
          ~uptime ~engine:later_engine ~server:later_server
      in
      close "empty span" 0.0 e.Telemetry.w_span;
      close "empty rate" 0.0 e.Telemetry.slots_per_sec;
      close "empty quantile" 0.0 e.Telemetry.p99_us)
    [ 7.0; 3.0; Float.nan ]

let test_window_retention () =
  let window = 10.0 in
  let empty = (Registry.snapshot (Registry.create ()), []) in
  let publish kept uptime =
    Telemetry.retain ~window kept (view_at ~uptime empty)
  in
  let uptimes kept = List.map (fun v -> v.Telemetry.uptime) kept in
  (* Publications every 0.5 s keep one a second: a tenth of the window. *)
  let kept = List.fold_left publish [] [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0 ] in
  Alcotest.(check (list (float 0.0))) "spaced a tenth of the window"
    [ 2.5; 1.5; 0.5 ] (uptimes kept);
  let base uptime =
    Option.map
      (fun v -> v.Telemetry.uptime)
      (Telemetry.window_base ~window kept ~uptime)
  in
  Alcotest.(check (option (float 0.0))) "run younger than the window" None
    (base 3.0);
  Alcotest.(check (option (float 0.0))) "no view old enough yet" None
    (base 10.4);
  Alcotest.(check (option (float 0.0))) "newest view at or before now - w"
    (Some 1.5) (base 12.2);
  Alcotest.(check (option (float 0.0))) "at the boundary" (Some 2.5)
    (base 12.5);
  (* Over 10 000 publications 0.3 s apart, the retained views stay
     bounded and every window reaches back at least the window, and at
     most one spacing and one publication gap beyond it. *)
  let kept = ref [] and most = ref 0 in
  for i = 1 to 10_000 do
    let uptime = 0.3 *. float_of_int i in
    (match Telemetry.window_base ~window !kept ~uptime with
    | None ->
      Alcotest.(check bool) "start base only while young" true
        (uptime < window +. 1.3)
    | Some b ->
      let span = uptime -. b.Telemetry.uptime in
      Alcotest.(check bool)
        (Printf.sprintf "span %g at %g" span uptime)
        true
        (span >= window && span <= window +. 1.3 +. 1e-9));
    kept := publish !kept uptime;
    most := max !most (List.length !kept)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at most 12 views kept (%d)" !most)
    true (!most <= 12)

(* --- the daemon, end to end --- *)

let test_daemon_telemetry_no_engine_effect () =
  (* The acceptance bar for the whole plane: the same recorded trace with
     telemetry on and off produces bit-identical engine metrics. *)
  let compact =
    Trace.Compact.of_workload (proc_workload ~seed:23 ()) ~slots:400
  in
  let run ~telemetry () =
    Daemon.run ~ring_capacity:8 ~flush_every:100 ~telemetry ~stats_every:50
      ~p99_budget_us:1e9 ~model:(Model.Proc proc_config) ~policy:"NHST"
      ~ingest:(Daemon.Trace compact) ()
  in
  let plain = run ~telemetry:false () in
  let instrumented = run ~telemetry:true () in
  List.iter
    (fun (label, f) ->
      Alcotest.(check int) label (f plain) (f instrumented))
    [
      ("slots", fun (r : Daemon.report) -> r.Daemon.slots);
      ("arrivals", fun r -> r.Daemon.arrivals);
      ("accepted", fun r -> r.Daemon.accepted);
      ("transmitted", fun r -> r.Daemon.transmitted);
      ("dropped", fun r -> r.Daemon.dropped);
      ("flushed", fun r -> r.Daemon.flushed);
    ];
  Alcotest.(check bool) "conservation holds instrumented" true
    instrumented.Daemon.conservation_ok;
  Alcotest.(check bool) "healthy run is not degraded" false
    instrumented.Daemon.degraded;
  (* Telemetry on reports per-rule states (conservation, the p99 budget,
     ring high-water, shed rate); off reports nothing at all. *)
  Alcotest.(check int) "four rules reported" 4
    (List.length instrumented.Daemon.health);
  Alcotest.(check bool) "all rules ok" true
    (List.for_all (fun (_, tripped) -> not tripped) instrumented.Daemon.health);
  Alcotest.(check (list (pair string bool))) "no health with telemetry off" []
    plain.Daemon.health

let test_daemon_stats_socket_round_trip () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smbm-test-stats-%d.sock" (Unix.getpid ()))
  in
  let bank =
    Mmpp_bank.create ~mmpp:(mmpp 10) (Model.Proc proc_config) ~load:1.0 ~seed:3
      ()
  in
  (* The querier races the daemon from its own domain: retry until the
     first publication, then exercise the protocol mid-run. *)
  let querier =
    Domain.spawn (fun () ->
        let rec attempt n =
          match Telemetry.query ~path:sock "stats json" with
          | Ok lines -> Ok lines
          | Error _ when n > 0 ->
            Unix.sleepf 0.02;
            attempt (n - 1)
          | Error _ as e -> e
        in
        let json = attempt 500 in
        let health = Telemetry.query ~path:sock "health" in
        let spans = Telemetry.query ~path:sock "spans" in
        let bogus = Telemetry.query ~path:sock "bogus" in
        (json, health, spans, bogus))
  in
  let report =
    Daemon.run ~ring_capacity:8 ~stats_sock:sock ~stats_every:20 ~rate:2000.0
      ~slots:2000 ~model:(Model.Proc proc_config) ~policy:"LWD"
      ~ingest:(Daemon.Bank bank) ()
  in
  let json, health, spans, bogus = Domain.join querier in
  (match json with
  | Ok [ line ] -> (
    match Json.parse_flat line with
    | Error msg -> Alcotest.fail ("stats json does not parse: " ^ msg)
    | Ok fields ->
      (match List.assoc_opt "slot" fields with
      | Some (Json.Int s) ->
        Alcotest.(check bool) "published mid-run" true (s > 0 && s <= 2000)
      | _ -> Alcotest.fail "no slot field");
      Alcotest.(check bool) "policy travels" true
        (List.assoc_opt "policy" fields = Some (Json.Str "LWD"));
      let engine = Telemetry.samples_of_json ~prefix:"engine" fields in
      Alcotest.(check bool) "engine metrics travel" true
        (List.mem_assoc "arrivals" engine);
      let server = Telemetry.samples_of_json ~prefix:"server" fields in
      Alcotest.(check bool) "server instruments travel" true
        (List.mem_assoc "slot_time_us" server))
  | Ok lines ->
    Alcotest.fail
      (Printf.sprintf "stats json: expected 1 line, got %d" (List.length lines))
  | Error msg -> Alcotest.fail ("stats json never answered: " ^ msg));
  (match health with
  | Ok (first :: rules) ->
    Alcotest.(check string) "health ok under load" "ok" first;
    Alcotest.(check bool) "rules listed" true (List.length rules >= 3)
  | Ok [] -> Alcotest.fail "empty health answer"
  | Error msg -> Alcotest.fail ("health query failed: " ^ msg));
  (match spans with
  | Ok lines ->
    Alcotest.(check bool) "engine stage profiled" true
      (List.exists (fun l -> contains l "engine:") lines);
    Alcotest.(check bool) "ring wait profiled" true
      (List.exists (fun l -> contains l "ring_wait:") lines)
  | Error msg -> Alcotest.fail ("spans query failed: " ^ msg));
  (match bogus with
  | Error msg -> Alcotest.(check bool) "unknown command errors" true
      (contains msg "unknown command")
  | Ok _ -> Alcotest.fail "bogus command accepted");
  Alcotest.(check int) "all slots served" 2000 report.Daemon.slots;
  Alcotest.(check bool) "healthy" false report.Daemon.degraded;
  Alcotest.(check bool)
    (Option.value ~default:"conservation holds" report.Daemon.conservation_error)
    true report.Daemon.conservation_ok;
  Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists sock)

let suite =
  [
    Alcotest.test_case "health hysteresis" `Quick test_health_hysteresis;
    Alcotest.test_case "health never flaps on alternation" `Quick
      test_health_no_flap_on_alternation;
    Alcotest.test_case "health trip_after one" `Quick test_health_trip_after_one;
    Alcotest.test_case "protocol against a synthetic view" `Quick
      test_handle_protocol;
    Alcotest.test_case "stats json round-trip" `Quick
      test_stats_json_round_trip;
    Alcotest.test_case "stage aggregates" `Quick test_stage_aggregates;
    Alcotest.test_case "window from two snapshots" `Quick test_window_stats;
    Alcotest.test_case "window base retention" `Quick test_window_retention;
    Alcotest.test_case "telemetry has no engine effect" `Slow
      test_daemon_telemetry_no_engine_effect;
    Alcotest.test_case "stats socket round-trip under load" `Slow
      test_daemon_stats_socket_round_trip;
  ]
