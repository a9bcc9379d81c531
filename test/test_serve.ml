open Smbm_core
open Smbm_serve
module Scenario = Smbm_traffic.Scenario
module Workload = Smbm_traffic.Workload
module Trace = Smbm_traffic.Trace
module Event = Smbm_obs.Event
module Flight = Smbm_obs.Flight
module Qc = QCheck_alcotest

let proc_config = Proc_config.contiguous ~k:8 ~buffer:32 ()
let mmpp sources = { Scenario.default_mmpp with sources }

let proc_workload ?(sources = 20) ~seed () =
  Scenario.proc_workload ~mmpp:(mmpp sources) ~config:proc_config ~load:2.0
    ~seed ()

let extract b =
  Array.init (Arrival_batch.length b) (fun i ->
      (Arrival_batch.dest b i, Arrival_batch.value b i, Arrival_batch.work b i))

(* --- the ring itself --- *)

let test_ring_shed_accounting () =
  (* Single-threaded and deterministic: with no consumer, a capacity-2 ring
     accepts exactly 2 slots and sheds the rest, counting slots and the
     packets inside them. *)
  let ring = Spsc_ring.create ~capacity:2 () in
  let fill b =
    for d = 0 to 2 do
      Arrival_batch.push b ~dest:d ~value:1
    done
  in
  let results =
    List.init 5 (fun _ -> Spsc_ring.produce ring ~policy:`Shed ~fill ())
  in
  Alcotest.(check (list bool))
    "first two pushed, rest shed"
    [ true; true; false; false; false ]
    (List.map (fun r -> r = Spsc_ring.Pushed) results);
  Alcotest.(check int) "shed slots" 3 (Spsc_ring.shed_slots ring);
  Alcotest.(check int) "shed packets" 9 (Spsc_ring.shed_packets ring);
  Alcotest.(check int) "occupancy" 2 (Spsc_ring.length ring);
  Alcotest.(check int) "high-water" 2 (Spsc_ring.max_occupancy ring);
  (* Drain after close: both published slots intact, then Drained. *)
  Spsc_ring.close ring;
  let seen = ref 0 in
  let rec drain () =
    match
      Spsc_ring.consume ring
        ~stop:(fun () -> false)
        ~f:(fun b ->
          incr seen;
          Alcotest.(check int) "slot content survives transit" 3
            (Arrival_batch.length b))
    with
    | Spsc_ring.Consumed -> drain ()
    | Spsc_ring.Drained -> ()
    | Spsc_ring.Stopped -> Alcotest.fail "stop predicate never set"
  in
  drain ();
  Alcotest.(check int) "both pushed slots consumed" 2 !seen

let test_ring_abort_unblocks_producer () =
  let ring = Spsc_ring.create ~capacity:1 () in
  let fill b = Arrival_batch.push b ~dest:0 ~value:1 in
  Alcotest.(check bool)
    "first push lands" true
    (Spsc_ring.produce ring ~policy:`Block ~fill () = Spsc_ring.Pushed);
  (* Ring is now full; a blocking producer on another domain can only
     return once the consumer aborts. *)
  let producer =
    Domain.spawn (fun () -> Spsc_ring.produce ring ~policy:`Block ~fill ())
  in
  Unix.sleepf 0.02;
  Spsc_ring.abort ring;
  Alcotest.(check bool)
    "blocked producer aborted" true
    (Domain.join producer = Spsc_ring.Aborted);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Spsc_ring.create: capacity must be >= 1") (fun () ->
      ignore (Spsc_ring.create ~capacity:0 ()))

(* S4: a batch that crossed the ring is bit-identical (dest, value, work,
   length, order) to what next_into on an identical workload yields
   directly — the hand-off neither reorders, duplicates, loses nor leaks
   stale contents from slot reuse (capacities smaller than the slot count
   force every Arrival_batch to be reused several times). *)
let prop_ring_transit_bit_identity =
  QCheck2.Test.make ~name:"ring transit is bit-identical to next_into"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* slots = int_range 1 60 in
      let* capacity = int_range 1 8 in
      pure (seed, slots, capacity))
    (fun (seed, slots, capacity) ->
      let w_ring = proc_workload ~seed () in
      let w_direct = proc_workload ~seed () in
      let ring = Spsc_ring.create ~capacity () in
      let producer =
        Domain.spawn (fun () ->
            for _ = 1 to slots do
              match
                Spsc_ring.produce ring ~policy:`Block
                  ~fill:(Workload.next_into w_ring) ()
              with
              | Spsc_ring.Pushed -> ()
              | Spsc_ring.Shed | Spsc_ring.Aborted ->
                failwith "blocking produce neither sheds nor aborts"
            done;
            Spsc_ring.close ring)
      in
      let got = ref [] in
      let rec consume () =
        match
          Spsc_ring.consume ring
            ~stop:(fun () -> false)
            ~f:(fun b -> got := extract b :: !got)
        with
        | Spsc_ring.Consumed -> consume ()
        | Spsc_ring.Drained -> ()
        | Spsc_ring.Stopped -> failwith "stop predicate never set"
      in
      consume ();
      Domain.join producer;
      let scratch = Arrival_batch.create () in
      let expected =
        List.init slots (fun _ ->
            Workload.next_into w_direct scratch;
            extract scratch)
      in
      List.rev !got = expected)

(* --- the MMPP bank --- *)

let bank_slots bank n =
  let b = Arrival_batch.create () in
  List.init n (fun _ ->
      Mmpp_bank.fill bank b;
      extract b)

let test_bank_sharding_deterministic () =
  let model = Model.Proc proc_config in
  let make ?pool shards =
    Mmpp_bank.create ~mmpp:(mmpp 10) ?pool ~shards model ~load:2.0 ~seed:7 ()
  in
  (* Same (seed, shards): identical streams, with and without a pool. *)
  let inline3 = bank_slots (make 3) 50 in
  Smbm_par.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check bool)
        "pool does not change the stream" true
        (bank_slots (make ~pool 3) 50 = inline3));
  Alcotest.(check bool)
    "replayable: same seed, same stream" true
    (bank_slots (make 3) 50 = inline3);
  (* Aggregate rate is preserved by sharding. *)
  let rate n = Option.get (Mmpp_bank.mean_rate (make n)) in
  Alcotest.(check (float 1e-9)) "sharding preserves the rate" (rate 1) (rate 3);
  Alcotest.check_raises "shards bounded by sources"
    (Invalid_argument "Mmpp_bank.create: more shards than sources") (fun () ->
      ignore (make 11))

(* --- the daemon --- *)

let test_daemon_reconfig_proc () =
  let ring = Flight.create ~cap:200_000 () in
  let bank = Mmpp_bank.create ~mmpp:(mmpp 20) (Model.Proc proc_config) ~load:2.0 ~seed:11 () in
  let report =
    Daemon.run ~ring_capacity:8 ~events:ring ~flush_every:250
      ~controls:
        [
          (200, Daemon.Set_policy "LQD");
          (400, Daemon.Resize_buffer 96);
          (600, Daemon.Resize_buffer 1);
          (* clamped to occupancy: no buffered packet may be dropped *)
          (700, Daemon.Set_policy "NO-SUCH-POLICY");
        ]
      ~slots:800 ~model:(Model.Proc proc_config) ~policy:"LWD"
      ~ingest:(Daemon.Bank bank) ()
  in
  Alcotest.(check int) "all slots served" 800 report.Daemon.slots;
  Alcotest.(check bool) "traffic flowed" true (report.Daemon.arrivals > 0);
  Alcotest.(check int) "three controls applied" 3 report.Daemon.reconfigs;
  Alcotest.(check int) "unknown policy rejected, not fatal" 1
    report.Daemon.reconfigs_rejected;
  Alcotest.(check bool)
    "ring bounded" true
    (report.Daemon.ring_max <= report.Daemon.ring_capacity);
  Alcotest.(check bool)
    "nothing shed under Block" true
    (report.Daemon.shed_slots = 0 && report.Daemon.shed_packets = 0);
  Alcotest.(check bool)
    (Option.value ~default:"conservation holds across reconfigurations"
       report.Daemon.conservation_error)
    true report.Daemon.conservation_ok;
  Alcotest.(check bool) "ran to ingest end" false report.Daemon.stopped;
  (* The reconfigurations are on the event record, in order. *)
  let reconfigs =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Reconfig { what; target } -> Some (e.Event.slot, what, target)
        | _ -> None)
      (Flight.events ring)
  in
  Alcotest.(check int) "three reconfig events" 3 (List.length reconfigs);
  (match reconfigs with
  | [ (s1, "policy", "LQD"); (s2, "buffer", "96"); (s3, "buffer", b3) ] ->
    Alcotest.(check (list int)) "at the scripted boundaries" [ 200; 400; 600 ]
      [ s1; s2; s3 ];
    (* The shrink was clamped to the live occupancy, which the arrival
       pressure keeps at or under the old B but above the absurd target. *)
    Alcotest.(check bool) "shrink clamped" true (int_of_string b3 >= 1)
  | _ -> Alcotest.fail "unexpected reconfig event shapes");
  (* Replay closes the loop: a stream containing reconfig events still
     folds back into certified state, and the reconstructed counters match
     the daemon's report. *)
  let lines =
    List.mapi
      (fun i event -> { Smbm_forensics.Trace_file.lineno = i + 1; event })
      (Flight.events ring)
  in
  let source =
    { Smbm_forensics.Trace_file.src = "serve"; lines; evicted = 0; oldest_slot = 0 }
  in
  let replayed = Smbm_forensics.Replay.replay source in
  (match replayed.Smbm_forensics.Replay.status with
  | Smbm_forensics.Replay.Verified _ -> ()
  | Smbm_forensics.Replay.Unverifiable _ ->
    Alcotest.fail "complete stream should certify");
  Alcotest.(check int) "replay reconstructs the arrival count"
    report.Daemon.arrivals
    (Smbm_sim.Metrics.arrivals replayed.Smbm_forensics.Replay.metrics)

let test_daemon_stop_control () =
  let bank = Mmpp_bank.create ~mmpp:(mmpp 10) (Model.Proc proc_config) ~load:1.0 ~seed:3 () in
  (* No slot bound, no duration: only the scripted Stop ends the run. *)
  let report =
    Daemon.run ~ring_capacity:4
      ~controls:[ (100, Daemon.Stop) ]
      ~model:(Model.Proc proc_config) ~policy:"LQD"
      ~ingest:(Daemon.Bank bank) ()
  in
  Alcotest.(check int) "stopped at the boundary" 100 report.Daemon.slots;
  Alcotest.(check bool) "flagged as stopped" true report.Daemon.stopped;
  Alcotest.(check bool)
    (Option.value ~default:"conservation holds" report.Daemon.conservation_error)
    true report.Daemon.conservation_ok

let test_daemon_value_swap () =
  let config = Value_config.make ~ports:8 ~max_value:8 ~buffer:32 () in
  let bank =
    Mmpp_bank.create ~mmpp:(mmpp 20) (Model.Value_uniform config) ~load:2.0
      ~seed:5 ()
  in
  let report =
    Daemon.run ~ring_capacity:8
      ~controls:[ (100, Daemon.Set_policy "LQD"); (200, Daemon.Resize_buffer 16) ]
      ~slots:300 ~model:(Model.Value_uniform config) ~policy:"MRD"
      ~ingest:(Daemon.Bank bank) ()
  in
  Alcotest.(check int) "all slots served" 300 report.Daemon.slots;
  Alcotest.(check int) "both controls applied" 2 report.Daemon.reconfigs;
  Alcotest.(check bool)
    (Option.value ~default:"conservation holds" report.Daemon.conservation_error)
    true report.Daemon.conservation_ok

let test_daemon_trace_ingest_bit_exact () =
  (* Arrivals offered by the daemon over a trace ingest are exactly the
     trace: same packet count, every slot served. *)
  let trace = Trace.record (proc_workload ~seed:23 ()) ~slots:200 in
  let compact = Trace.Compact.of_trace trace in
  let report =
    Daemon.run ~ring_capacity:4 ~model:(Model.Proc proc_config) ~policy:"NHST"
      ~ingest:(Daemon.Trace compact) ()
  in
  Alcotest.(check int) "slots from the trace" 200 report.Daemon.slots;
  Alcotest.(check int) "arrivals are the trace's" (Trace.arrivals trace)
    report.Daemon.arrivals;
  Alcotest.(check bool)
    (Option.value ~default:"conservation holds" report.Daemon.conservation_error)
    true report.Daemon.conservation_ok

(* --- the black box --- *)

(* The always-on flight ring changes nothing: a deterministic trace ingest
   produces the same counters with the ring on (default) and off. *)
let test_daemon_flight_zero_observer_effect () =
  let run flight_cap =
    let trace = Trace.record (proc_workload ~seed:23 ()) ~slots:200 in
    Daemon.run ~ring_capacity:4 ~flight_cap ~model:(Model.Proc proc_config)
      ~policy:"LWD"
      ~ingest:(Daemon.Trace (Trace.Compact.of_trace trace))
      ()
  in
  let off = run 0 and on = run 65536 in
  Alcotest.(check bool) "counters identical" true
    (off.Daemon.arrivals = on.Daemon.arrivals
    && off.Daemon.accepted = on.Daemon.accepted
    && off.Daemon.transmitted = on.Daemon.transmitted
    && off.Daemon.dropped = on.Daemon.dropped
    && off.Daemon.flushed = on.Daemon.flushed
    && off.Daemon.slots = on.Daemon.slots)

(* Trip a watchdog deliberately (an impossible p99 budget), and the daemon
   must dump the flight ring plus a state snapshot that certifies: the
   replayed window reconstructs exactly the counters the daemon snapshot
   recorded at trip time. *)
let test_daemon_trip_writes_certifiable_postmortem () =
  let bank =
    Mmpp_bank.create ~mmpp:(mmpp 10) (Model.Proc proc_config) ~load:2.0
      ~seed:9 ()
  in
  let base = Filename.temp_file "smbm_serve_pm" "" in
  let report =
    Daemon.run ~ring_capacity:8 ~telemetry:true ~p99_budget_us:1e-6
      ~stats_every:100 ~flight_cap:(1 lsl 17) ~postmortem:base ~slots:400
      ~model:(Model.Proc proc_config) ~policy:"LWD" ~ingest:(Daemon.Bank bank)
      ()
  in
  Alcotest.(check bool) "watchdog tripped" true report.Daemon.degraded;
  (match report.Daemon.postmortem with
  | None -> Alcotest.fail "no postmortem written"
  | Some b -> (
    Alcotest.(check string) "report carries the base" base b;
    let module PM = Smbm_forensics.Postmortem in
    match PM.load b with
    | Error e -> Alcotest.fail e
    | Ok (meta, trace) -> (
      Alcotest.(check string) "trigger" "health" meta.PM.reason;
      Alcotest.(check string) "model" "proc" meta.PM.model;
      Alcotest.(check string) "live policy" "LWD" meta.PM.policy;
      Alcotest.(check int) "nothing evicted" 0 meta.PM.evicted;
      Alcotest.(check bool) "health state captured" true
        (List.exists (fun (_, tripped) -> tripped) meta.PM.health);
      match PM.certify meta trace with
      | Ok (PM.Certified { slots; events; checked }) ->
        Alcotest.(check bool) "certified a real window" true
          (slots > 0 && events > 0 && checked >= 8)
      | Ok (PM.Window _) -> Alcotest.fail "unevicted dump not certified"
      | Error e -> Alcotest.failf "certify: %s" e)));
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ Smbm_forensics.Postmortem.trace_path base;
      Smbm_forensics.Postmortem.meta_path base; base ]

(* Only the first trigger dumps; a second trip must not overwrite the
   earliest evidence. *)
let test_daemon_postmortem_first_trigger_only () =
  let bank =
    Mmpp_bank.create ~mmpp:(mmpp 10) (Model.Proc proc_config) ~load:2.0
      ~seed:13 ()
  in
  let base = Filename.temp_file "smbm_serve_pm" "" in
  let report =
    Daemon.run ~ring_capacity:8 ~telemetry:true ~p99_budget_us:1e-6
      ~stats_every:50 ~flight_cap:(1 lsl 17) ~postmortem:base ~slots:300
      ~model:(Model.Proc proc_config) ~policy:"LQD" ~ingest:(Daemon.Bank bank)
      ()
  in
  (match report.Daemon.postmortem with
  | None -> Alcotest.fail "no postmortem written"
  | Some _ -> ());
  (match Smbm_forensics.Postmortem.load base with
  | Error e -> Alcotest.fail e
  | Ok (meta, _) ->
    (* The first evaluation boundary is the earliest the budget rule can
       trip; the snapshot must be from then, not from the end of the run. *)
    Alcotest.(check bool) "dumped at the first trip, kept" true
      (meta.Smbm_forensics.Postmortem.slot < 300));
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ Smbm_forensics.Postmortem.trace_path base;
      Smbm_forensics.Postmortem.meta_path base; base ]

let test_daemon_unknown_policy_rejected () =
  let bank = Mmpp_bank.create ~mmpp:(mmpp 5) (Model.Proc proc_config) ~load:1.0 ~seed:1 () in
  Alcotest.check_raises "unknown initial policy"
    (Invalid_argument "Daemon.run: unknown processing policy \"bogus\"")
    (fun () ->
      ignore
        (Daemon.run ~slots:1 ~model:(Model.Proc proc_config) ~policy:"bogus"
           ~ingest:(Daemon.Bank bank) ()))

(* --- draining the ring to an event sink --- *)

let serve_traced ~cap ~path =
  let events = Flight.create ~cap () in
  let sink = Smbm_obs.Sink.file path in
  let bank =
    Mmpp_bank.create ~mmpp:(mmpp 20) (Model.Proc proc_config) ~load:2.0
      ~seed:17 ()
  in
  let report =
    Daemon.run ~ring_capacity:8 ~events ~event_sink:sink ~flush_every:1000
      ~slots:3000 ~model:(Model.Proc proc_config) ~policy:"LWD"
      ~ingest:(Daemon.Bank bank) ()
  in
  Smbm_obs.Sink.close sink;
  (report, events)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The sink is fed from a cursor at the end of every slot, so a ring far
   smaller than the run wraps many times yet loses nothing: its trace is
   the one a never-wrapping ring writes, and it certifies under replay. *)
let test_daemon_drain_survives_wrap () =
  let small = Filename.temp_file "smbm_serve_small" ".jsonl" in
  let big = Filename.temp_file "smbm_serve_big" ".jsonl" in
  let r_small, ring_small = serve_traced ~cap:1000 ~path:small in
  let r_big, ring_big = serve_traced ~cap:(1 lsl 18) ~path:big in
  Alcotest.(check bool) "small ring wrapped" true
    (Flight.dropped ring_small > 0);
  Alcotest.(check int) "big ring never wrapped" 0 (Flight.dropped ring_big);
  Alcotest.(check int) "nothing lost to the sink" 0
    r_small.Daemon.events_evicted;
  Alcotest.(check int) "same run" r_big.Daemon.arrivals r_small.Daemon.arrivals;
  Alcotest.(check bool) "trace = never-wrapping ring's trace" true
    (read_file small = read_file big);
  (match Smbm_forensics.Trace_file.load small with
  | Error e -> Alcotest.failf "trace load failed: %s" e
  | Ok trace -> (
    match Smbm_forensics.Trace_file.find trace "serve" with
    | Error e -> Alcotest.fail e
    | Ok source ->
      let replayed = Smbm_forensics.Replay.replay source in
      (match replayed.Smbm_forensics.Replay.status with
      | Smbm_forensics.Replay.Verified _ -> ()
      | Smbm_forensics.Replay.Unverifiable _ ->
        Alcotest.fail "drained trace should certify");
      Alcotest.(check int) "replay reconstructs the arrival count"
        r_small.Daemon.arrivals
        (Smbm_sim.Metrics.arrivals replayed.Smbm_forensics.Replay.metrics)));
  Sys.remove small;
  Sys.remove big

(* A slot recording more than the ring holds cannot be drained whole: the
   loss is declared in the sink by [Truncated] markers and in the report,
   and what was written plus what was declared is everything recorded. *)
let test_daemon_drain_declares_overflow () =
  let path = Filename.temp_file "smbm_serve_tiny" ".jsonl" in
  let report, ring = serve_traced ~cap:8 ~path in
  let events =
    match Smbm_forensics.Trace_file.read_events path with
    | Ok l -> List.map snd l
    | Error e -> Alcotest.failf "trace read failed: %s" e
  in
  Sys.remove path;
  let declared =
    List.fold_left
      (fun acc (e : Event.t) ->
        match e.Event.kind with
        | Event.Truncated { evicted } -> acc + evicted
        | _ -> acc)
      0 events
  in
  Alcotest.(check bool) "overflow happened" true
    (report.Daemon.events_evicted > 0);
  Alcotest.(check int) "markers declare the report's loss"
    report.Daemon.events_evicted declared;
  let written =
    List.length
      (List.filter
         (fun (e : Event.t) ->
           match e.Event.kind with Event.Truncated _ -> false | _ -> true)
         events)
  in
  Alcotest.(check int) "written + declared = recorded" (Flight.total ring)
    (written + declared)

let test_daemon_sink_needs_ring () =
  let bank =
    Mmpp_bank.create ~mmpp:(mmpp 10) (Model.Proc proc_config) ~load:1.0
      ~seed:1 ()
  in
  Alcotest.check_raises "event sink without a ring"
    (Invalid_argument
       "Daemon.run: an event_sink needs the event ring (flight_cap > 0)")
    (fun () ->
      ignore
        (Daemon.run ~flight_cap:0 ~event_sink:Smbm_obs.Sink.null ~slots:1
           ~model:(Model.Proc proc_config) ~policy:"LWD"
           ~ingest:(Daemon.Bank bank) ()))

let suite =
  [
    Alcotest.test_case "ring shed accounting" `Quick test_ring_shed_accounting;
    Alcotest.test_case "ring abort unblocks producer" `Quick
      test_ring_abort_unblocks_producer;
    Qc.to_alcotest prop_ring_transit_bit_identity;
    Alcotest.test_case "bank sharding deterministic" `Quick
      test_bank_sharding_deterministic;
    Alcotest.test_case "daemon live reconfiguration (proc)" `Quick
      test_daemon_reconfig_proc;
    Alcotest.test_case "daemon stop control" `Quick test_daemon_stop_control;
    Alcotest.test_case "daemon policy swap + resize (value)" `Quick
      test_daemon_value_swap;
    Alcotest.test_case "daemon trace ingest is bit-exact" `Quick
      test_daemon_trace_ingest_bit_exact;
    Alcotest.test_case "daemon rejects unknown initial policy" `Quick
      test_daemon_unknown_policy_rejected;
    Alcotest.test_case "daemon flight: zero observer effect" `Quick
      test_daemon_flight_zero_observer_effect;
    Alcotest.test_case "daemon trip writes certifiable postmortem" `Quick
      test_daemon_trip_writes_certifiable_postmortem;
    Alcotest.test_case "daemon postmortem: first trigger only" `Quick
      test_daemon_postmortem_first_trigger_only;
    Alcotest.test_case "daemon trace drain survives ring wrap" `Quick
      test_daemon_drain_survives_wrap;
    Alcotest.test_case "daemon trace drain declares overflow" `Quick
      test_daemon_drain_declares_overflow;
    Alcotest.test_case "daemon event sink needs a ring" `Quick
      test_daemon_sink_needs_ring;
  ]
