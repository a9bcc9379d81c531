(* Trace forensics: replay reconstructs metrics bit-identically from a
   trace alone (proc, value, hybrid), diff pins the first divergent
   admission on a seeded pair, and attribution's regret accounting
   conserves the measured throughput gap. *)

open Smbm_obs
open Smbm_sim
open Smbm_forensics

let mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = 10 }

(* Run [insts] (each wired to its own event ring) over [workload], write the
   dumps into one interleaved trace file, and load it back. *)
let trace_of_run ~slots ~flush_every ~workload insts_recs =
  Experiment.run
    ~params:{ Experiment.slots; flush_every; check_every = Some 50 }
    ~workload
    (List.map fst insts_recs);
  let path = Filename.temp_file "smbm_forensics" ".jsonl" in
  let sink = Sink.file path in
  List.iter
    (fun (_, r) -> List.iter (Sink.event sink) (Flight.dump r))
    insts_recs;
  Sink.close sink;
  let trace = Trace_file.load path in
  Sys.remove path;
  match trace with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace load failed: %s" e

let source trace name =
  match Trace_file.find trace name with
  | Ok s -> s
  | Error e -> Alcotest.failf "source %s: %s" name e

(* The round-trip certificate: replay the instance's stream and demand the
   reconstructed metrics serialize to the very same bytes as the live
   run's. *)
let check_round_trip label (inst : Instance.t) trace =
  let r = Replay.replay (source trace inst.Instance.name) in
  (match r.Replay.status with
  | Replay.Verified { slots; checks } ->
    Alcotest.(check bool)
      (label ^ ": verification ran")
      true
      (slots > 0 && checks >= slots)
  | Replay.Unverifiable _ ->
    Alcotest.failf "%s: complete trace reported unverifiable" label);
  Alcotest.(check (list string))
    (label ^ ": metrics bit-identical")
    (Metrics.to_jsonl inst.Instance.metrics)
    (Metrics.to_jsonl r.Replay.metrics)

(* --- round trips, one per switch model --- *)

let test_round_trip_proc () =
  let cfg = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
  let ring = Flight.create ~cap:65_536 () in
  let inst = Engine.Proc.instance ~events:ring cfg (Smbm_core.P_lwd.make cfg) in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config:cfg ~load:2.0 ~seed:11 ()
  in
  let trace =
    trace_of_run ~slots:400 ~flush_every:(Some 100) ~workload
      [ (inst, ring) ]
  in
  check_round_trip "proc/LWD" inst trace

let test_round_trip_value () =
  let cfg = Smbm_core.Value_config.make ~ports:4 ~max_value:8 ~buffer:8 () in
  let ring = Flight.create ~cap:65_536 () in
  let inst =
    Engine.Value.instance ~events:ring cfg (Smbm_core.V_mrd.make cfg)
  in
  let workload =
    Smbm_traffic.Scenario.value_port_workload ~mmpp ~config:cfg ~load:2.5
      ~seed:7 ()
  in
  let trace =
    trace_of_run ~slots:400 ~flush_every:(Some 100) ~workload
      [ (inst, ring) ]
  in
  check_round_trip "value/MRD" inst trace

let test_round_trip_hybrid () =
  let cfg =
    Smbm_core.Proc_config.contiguous ~k:4 ~max_value:8 ~buffer:16 ()
  in
  let ring = Flight.create ~cap:65_536 () in
  let inst =
    Engine.Proc.instance ~events:ring cfg (Smbm_core.P_lwd.make cfg)
  in
  let rng = Smbm_prelude.Rng.create ~seed:5 in
  let slots = 300 in
  let arrivals =
    Array.init slots (fun _ ->
        List.init
          (Smbm_prelude.Rng.poisson rng ~lambda:3.0)
          (fun _ ->
            let dest = Smbm_prelude.Rng.int rng 4 in
            let value = 1 + Smbm_prelude.Rng.int rng 8 in
            Smbm_core.Arrival.make ~dest ~value ()))
  in
  let workload = Smbm_traffic.Workload.of_slots arrivals in
  let trace =
    trace_of_run ~slots ~flush_every:(Some 100) ~workload [ (inst, ring) ]
  in
  check_round_trip "hybrid/LWD" inst trace

let prop_round_trip_proc_random =
  QCheck2.Test.make
    ~name:"replay reconstructs proc metrics across random runs" ~count:10
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 5 40) (int_range 5 20))
    (fun (seed, load10, buffer) ->
      let cfg = Smbm_core.Proc_config.contiguous ~k:4 ~buffer () in
      let ring = Flight.create ~cap:65_536 () in
      let inst =
        Engine.Proc.instance ~events:ring cfg (Smbm_core.P_lqd.make cfg)
      in
      let workload =
        Smbm_traffic.Scenario.proc_workload ~mmpp ~config:cfg
          ~load:(float_of_int load10 /. 10.0)
          ~seed ()
      in
      let trace =
        trace_of_run ~slots:200 ~flush_every:(Some 50) ~workload
          [ (inst, ring) ]
      in
      let r = Replay.replay (source trace inst.Instance.name) in
      Metrics.to_jsonl inst.Instance.metrics = Metrics.to_jsonl r.Replay.metrics)

(* --- diff: seeded golden --- *)

(* LWD vs LQD on one seeded workload.  The pinned numbers are this
   workload's ground truth: the first slot where weighted and unweighted
   victim selection part ways. *)
let diff_pair () =
  let cfg = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
  let ra = Flight.create ~cap:65_536 () in
  let rb = Flight.create ~cap:65_536 () in
  let a = Engine.Proc.instance ~events:ra cfg (Smbm_core.P_lwd.make cfg) in
  let b = Engine.Proc.instance ~events:rb cfg (Smbm_core.P_lqd.make cfg) in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config:cfg ~load:2.0 ~seed:42 ()
  in
  let trace =
    trace_of_run ~slots:400 ~flush_every:(Some 100) ~workload
      [ (a, ra); (b, rb) ]
  in
  (a, b, source trace "LWD", source trace "LQD")

let test_diff_golden () =
  let _, _, sa, sb = diff_pair () in
  match Diff.diff ~a:sa ~b:sb with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok d ->
    Alcotest.(check bool) "policies do diverge" true (d.Diff.diffs > 0);
    (match d.Diff.first with
    | None -> Alcotest.fail "no first divergence reported"
    | Some f ->
      Alcotest.(check int) "first divergence slot" 29 f.Diff.slot;
      Alcotest.(check int) "first divergence arrival index" 2 f.Diff.index;
      Alcotest.(check int) "first divergence dest" 2 f.Diff.dest;
      Alcotest.(check string) "LWD decision" "push-out[3,-1]"
        (Diff.decision_to_string f.Diff.a);
      Alcotest.(check string) "LQD decision" "drop[-1]"
        (Diff.decision_to_string f.Diff.b));
    (* The timeline covers every slot and its last row carries the final
       cumulative objectives. *)
    Alcotest.(check int) "rows" 400 (List.length d.Diff.rows);
    let last = List.nth d.Diff.rows (List.length d.Diff.rows - 1) in
    Alcotest.(check bool) "cumulative objective ordered" true
      (last.Diff.cum_tx_a >= last.Diff.cum_tx_b)

let test_diff_rejects_misaligned () =
  let cfg = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
  let run seed =
    let r = Flight.create ~cap:65_536 () in
    let inst = Engine.Proc.instance ~events:r cfg (Smbm_core.P_lwd.make cfg) in
    let workload =
      Smbm_traffic.Scenario.proc_workload ~mmpp ~config:cfg ~load:2.0 ~seed ()
    in
    trace_of_run ~slots:100 ~flush_every:(Some 50) ~workload [ (inst, r) ]
  in
  let sa = source (run 1) "LWD" and sb = source (run 2) "LWD" in
  match Diff.diff ~a:sa ~b:sb with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "diffed traces of different arrival instances"

(* --- attribution: conservation against live metrics --- *)

let check_conserved label (att : Attribution.t) ~measured_gap =
  Alcotest.(check int)
    (label ^ ": gap equals live metrics gap")
    measured_gap att.Attribution.gap;
  Alcotest.(check int)
    (label ^ ": charged + uncharged - credits = gap")
    att.Attribution.gap
    (att.Attribution.charged + att.Attribution.uncharged
   - att.Attribution.credits);
  List.iter
    (fun (l : Attribution.loss) ->
      if l.Attribution.charged > l.Attribution.capacity then
        Alcotest.failf "%s: loss at line %d overcharged" label
          l.Attribution.lineno)
    att.Attribution.losses

let test_attribution_conservation_proc () =
  let a, b, sa, sb = diff_pair () in
  match Attribution.attribute ~a:sa ~b:sb with
  | Error e -> Alcotest.failf "attribution failed: %s" e
  | Ok att ->
    check_conserved "proc LWD vs LQD" att
      ~measured_gap:
        (Metrics.transmitted_value a.Instance.metrics
        - Metrics.transmitted_value b.Instance.metrics);
    Alcotest.(check bool) "per-port attribution" true
      att.Attribution.per_port_mode;
    (* Every charged loss made it into the ranking, most expensive first. *)
    let rec desc = function
      | (x : Attribution.loss) :: (y :: _ as rest) ->
        x.Attribution.charged >= y.Attribution.charged && desc rest
      | _ -> true
    in
    Alcotest.(check bool) "ranking sorted by charge" true
      (desc att.Attribution.ranked)

let prop_attribution_conserves_gap =
  QCheck2.Test.make
    ~name:"attribution conserves the throughput gap across random runs"
    ~count:10
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 10 40))
    (fun (seed, load10) ->
      let cfg = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
      let ra = Flight.create ~cap:65_536 () in
      let rb = Flight.create ~cap:65_536 () in
      let a =
        Engine.Proc.instance ~events:ra cfg (Smbm_core.P_lwd.make cfg)
      in
      let b =
        Engine.Proc.instance ~events:rb cfg (Smbm_core.P_lqd.make cfg)
      in
      let workload =
        Smbm_traffic.Scenario.proc_workload ~mmpp ~config:cfg
          ~load:(float_of_int load10 /. 10.0)
          ~seed ()
      in
      let trace =
        trace_of_run ~slots:200 ~flush_every:(Some 50) ~workload
          [ (a, ra); (b, rb) ]
      in
      match
        Attribution.attribute ~a:(source trace "LWD") ~b:(source trace "LQD")
      with
      | Error e -> QCheck2.Test.fail_report e
      | Ok att ->
        att.Attribution.gap
        = Metrics.transmitted_value a.Instance.metrics
          - Metrics.transmitted_value b.Instance.metrics
        && att.Attribution.charged + att.Attribution.uncharged
           - att.Attribution.credits
           = att.Attribution.gap)

(* --- binary trace format --- *)

(* Every kind, with the corners the codec must carry: negative dests
   (Transmit_bulk's port-agnostic -1), strings needing JSON escapes,
   repeated interned strings, slot 0, large payloads. *)
let binary_corner_events =
  List.concat_map
    (fun (slot, src, kind) -> [ Event.make ~src ~slot kind ])
    [
      (0, "x=4/LWD", Event.Arrival { dest = 0 });
      (1, "x=4/LWD", Event.Accept { dest = 3 });
      (1, "a\"b\\c\nd", Event.Push_out { victim = 2; dest = 5; lost = 3 });
      (2, "x=4/LWD", Event.Drop { dest = 1; value = 6 });
      (3, "x=4/LWD", Event.Transmit { dest = 4; value = 9; latency = 123456789 });
      (3, "x=4/LWD", Event.Transmit_bulk { dest = -1; count = 3; value = 12 });
      (4, "x=4/LWD", Event.Flush { count = 7 });
      (4, "x=4/LWD", Event.Slot_end { occupancy = 42 });
      (5, "x=4/LWD", Event.Reconfig { what = "policy"; target = "L\tQD" });
      (6, "x=4/LWD", Event.Health { rule = "p99"; tripped = true; reason = "over" });
      (6, "x=4/LWD", Event.Health { rule = "p99"; tripped = false; reason = "ok" });
      (7, "", Event.Truncated { evicted = 19 });
    ]

let test_binary_round_trip_all_kinds () =
  let events = binary_corner_events in
  let path = Filename.temp_file "smbm_forensics" ".bin" in
  (match Trace_file.write ~format:`Binary path events with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "written file is binary" true (Trace_file.is_binary path);
  (match Trace_file.read_events path with
  | Error e -> Alcotest.fail e
  | Ok indexed ->
    Alcotest.(check bool) "events identical" true
      (List.map snd indexed = events);
    (* Event numbering stays 1-based like JSONL line numbers. *)
    Alcotest.(check int) "first index" 1 (fst (List.hd indexed)));
  (* The high-level loader consumes it transparently (the Truncated
     marker's src is a scope, not a source of its own). *)
  (match Trace_file.load path with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check int) "sources" 2 (List.length t.Trace_file.sources));
  Sys.remove path

let test_binary_rejects_corrupt () =
  let events = binary_corner_events in
  let data =
    match Trace_file.to_binary events with s -> s
  in
  let bad =
    [
      (* A file without the magic falls back to JSONL parsing, which
         rejects the binary noise; an outright wrong version or a damaged
         body must fail the binary decoder itself. *)
      "SMBMTRC" (* short magic: JSONL fallback, not a JSON object *);
      "SMBMTRC\x02" ^ String.sub data 8 (String.length data - 8) (* version *);
      String.sub data 0 (String.length data - 1) (* truncated tail *);
      data ^ "\x00" (* trailing garbage *);
    ]
  in
  let path = Filename.temp_file "smbm_forensics" ".bin" in
  List.iteri
    (fun i d ->
      let oc = open_out_bin path in
      output_string oc d;
      close_out oc;
      match Trace_file.read_events path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "corrupt variant %d accepted" i)
    bad;
  Sys.remove path

(* Lossless both ways: JSONL -> binary -> JSONL is byte-identical, and
   binary -> JSONL -> binary is too (both serializers are canonical). *)
let test_convert_lossless () =
  let events = binary_corner_events in
  let jsonl = List.map Event.to_json events in
  let bin = Trace_file.to_binary events in
  let jpath = Filename.temp_file "smbm_forensics" ".jsonl" in
  (match Trace_file.write ~format:`Jsonl jpath events with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "jsonl file is one line per event"
    (String.concat "" (List.map (fun l -> l ^ "\n") jsonl))
    (In_channel.with_open_bin jpath In_channel.input_all);
  (* JSONL file and binary bytes decode to the same events... *)
  (match Trace_file.read_events jpath with
  | Error e -> Alcotest.fail e
  | Ok indexed ->
    Alcotest.(check bool) "jsonl decodes to events" true
      (List.map snd indexed = events));
  (* ...and re-encoding the decoded stream reproduces both byte-exactly. *)
  let bpath = Filename.temp_file "smbm_forensics" ".bin" in
  (match Trace_file.write ~format:`Binary bpath events with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Trace_file.read_events bpath with
  | Error e -> Alcotest.fail e
  | Ok indexed ->
    Alcotest.(check (list string)) "binary -> jsonl lossless" jsonl
      (List.map (fun (_, e) -> Event.to_json e) indexed);
    Alcotest.(check bool) "jsonl -> binary lossless" true
      (Trace_file.to_binary (List.map snd indexed) = bin));
  Sys.remove jpath;
  Sys.remove bpath

(* A failed open or write is an [Error] naming the path, never an
   exception, in both encodings. *)
let test_write_failures () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "smbm-no-such-dir/t"
  in
  let paths =
    missing :: (if Sys.file_exists "/dev/full" then [ "/dev/full" ] else [])
  in
  List.iter
    (fun path ->
      List.iter
        (fun format ->
          match Trace_file.write ~format path binary_corner_events with
          | Ok () -> Alcotest.failf "write to %s succeeded" path
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%S names the path" msg)
              true
              (String.starts_with ~prefix:(path ^ ": ") msg))
        [ `Jsonl; `Binary ])
    paths

(* --- the structural audit behind trace-validate --- *)

let audit_of ?allow_truncation events =
  let path = Filename.temp_file "smbm_audit" ".jsonl" in
  let r =
    match Trace_file.write ~format:`Jsonl path events with
    | Error e -> Alcotest.fail e
    | Ok () -> (
      match Trace_file.load path with
      | Error e -> Alcotest.fail e
      | Ok t -> Trace_file.audit ?allow_truncation t)
  in
  Sys.remove path;
  (path, r)

let ev slot src kind = Event.make ~src ~slot kind
let arrival slot src = ev slot src (Event.Arrival { dest = 0 })
let accept slot src = ev slot src (Event.Accept { dest = 0 })
let marker slot scope evicted = ev slot scope (Event.Truncated { evicted })

let audit_ok ?allow_truncation events =
  match audit_of ?allow_truncation events with
  | _, Ok a -> a
  | _, Error e -> Alcotest.failf "audit rejected a sound trace: %s" e

let audit_error ?allow_truncation events =
  match audit_of ?allow_truncation events with
  | _, Ok _ -> Alcotest.fail "audit accepted a faulty trace"
  | path, Error e -> (path, e)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_audit_complete () =
  let a =
    audit_ok
      [
        arrival 0 "x/LWD"; accept 0 "x/LWD"; arrival 1 "x/LWD";
        ev 1 "x/LWD" (Event.Drop { dest = 0; value = 1 });
        ev 1 "x/LWD" (Event.Slot_end { occupancy = 1 });
        arrival 1 "x/LQD"; accept 1 "x/LQD";
      ]
  in
  Alcotest.(check int) "events" 7 a.Trace_file.events;
  Alcotest.(check (list (pair string int)))
    "kinds, sorted"
    [ ("accept", 2); ("arrival", 3); ("drop", 1); ("slot_end", 1) ]
    a.Trace_file.kinds;
  Alcotest.(check int) "no truncated scope" 0
    (List.length a.Trace_file.scopes);
  Alcotest.(check (list (pair string int)))
    "no deficit" [] a.Trace_file.deficits

(* Two markers on one scope add up; the later oldest-surviving slot wins. *)
let test_audit_truncated_covered () =
  let a =
    audit_ok
      [
        marker 4 "x" 1; marker 5 "x" 2; accept 5 "x/LWD"; accept 6 "x/LWD";
        arrival 7 "x/LWD"; accept 7 "x/LWD"; arrival 7 "y"; accept 7 "y";
      ]
  in
  Alcotest.(check int) "events, markers included" 8 a.Trace_file.events;
  Alcotest.(check (list (pair string int)))
    "markers counted as a kind"
    [ ("accept", 4); ("arrival", 2); ("truncated", 2) ]
    a.Trace_file.kinds;
  Alcotest.(check bool) "one scope, budgets summed" true
    (a.Trace_file.scopes = [ ("x", 3, 5) ]);
  Alcotest.(check (list (pair string int)))
    "the evicted prefix's resolutions" [ ("x/LWD", 2) ] a.Trace_file.deficits

let test_audit_backwards_slot () =
  let path, e =
    audit_error [ arrival 3 "s"; accept 3 "s"; arrival 2 "s"; accept 2 "s" ]
  in
  Alcotest.(check string) "positioned as path:line"
    (Printf.sprintf "%s:3: slot 2 of \"s\" goes backwards (last 3)" path)
    e

let test_audit_impossible_deficit () =
  let _, e = audit_error [ arrival 0 "s"; arrival 0 "s"; accept 0 "s" ] in
  Alcotest.(check bool) ("impossible: " ^ e) true
    (contains ~sub:"has 2 arrivals but only 1 resolutions" e
    && contains ~sub:"impossible" e)

let test_audit_scope_over_budget () =
  let _, e =
    audit_error [ marker 0 "x" 1; accept 1 "x/LWD"; accept 1 "x/LWD" ]
  in
  Alcotest.(check bool) ("over budget: " ^ e) true
    (contains
       ~sub:"scope \"x\" declares 1 evicted events but its sources are missing 2"
       e)

let test_audit_uncovered_deficit () =
  let events = [ marker 0 "x" 5; arrival 1 "y"; accept 1 "y"; accept 2 "y" ] in
  let _, e = audit_error events in
  Alcotest.(check bool) ("uncovered: " ^ e) true
    (contains ~sub:"source \"y\" violates" e
    && contains ~sub:"no truncation marker covering it" e);
  let a = audit_ok ~allow_truncation:true events in
  Alcotest.(check (list (pair string int)))
    "waived for legacy traces" [ ("y", 1) ] a.Trace_file.deficits

(* --- postmortem: write / load / certify --- *)

(* A real engine run dumped the way the daemon does it: flight ring +
   counter snapshot.  With an unevicted ring, certify must replay the
   whole window and match every counter and port occupancy exactly. *)
let test_postmortem_write_load_certify () =
  let cfg = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
  let flight = Flight.create ~cap:65536 () in
  let inst, sw =
    Engine.Proc.create ~events:flight cfg (Smbm_core.P_lwd.make cfg)
  in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config:cfg ~load:2.0 ~seed:3 ()
  in
  Experiment.run
    ~params:{ Experiment.slots = 200; flush_every = Some 50; check_every = None }
    ~workload [ inst ];
  let m = inst.Instance.metrics in
  let meta =
    {
      Postmortem.reason = "health";
      detail = "p99_slot_time: over budget";
      slot = 200;
      model = "proc";
      src = inst.Instance.name;
      policy = "LWD";
      buffer = 8;
      evicted = Flight.dropped flight;
      events = List.length (Flight.dump flight);
      counters =
        [
          ("arrivals", Metrics.arrivals m);
          ("accepted", Metrics.accepted m);
          ("dropped", Metrics.dropped m);
          ("pushed_out", Metrics.pushed_out m);
          ("transmitted", Metrics.transmitted m);
          ("transmitted_value", Metrics.transmitted_value m);
          ("flushed", Metrics.flushed m);
          ("in_buffer", Metrics.in_buffer m);
        ];
      ports = Array.init 4 (Smbm_core.Proc_switch.queue_length sw);
      health = [ ("p99_slot_time", true); ("conservation", false) ];
    }
  in
  let base = Filename.temp_file "smbm_postmortem" "" in
  (match Postmortem.write ~base meta (Flight.dump flight) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Load by base, by trace path, by meta path. *)
  List.iter
    (fun p ->
      match Postmortem.load p with
      | Error e -> Alcotest.failf "load %s: %s" p e
      | Ok (m', _) ->
        Alcotest.(check string) "reason survives" "health" m'.Postmortem.reason)
    [ base; Postmortem.trace_path base; Postmortem.meta_path base ];
  (match Postmortem.load base with
  | Error e -> Alcotest.fail e
  | Ok (meta', trace) -> (
    Alcotest.(check bool) "meta round-trips" true (meta' = meta);
    match Postmortem.certify meta' trace with
    | Error e -> Alcotest.failf "certify: %s" e
    | Ok (Postmortem.Certified { slots; events; checked }) ->
      Alcotest.(check int) "all slots" 200 slots;
      Alcotest.(check bool) "events counted" true (events > 0);
      Alcotest.(check bool) "counters checked" true (checked >= 8)
    | Ok (Postmortem.Window _) ->
      Alcotest.fail "unevicted dump certified as window only"));
  (* A tampered snapshot must be caught. *)
  let bad =
    {
      meta with
      Postmortem.counters =
        List.map
          (fun (k, v) -> if k = "transmitted" then (k, v + 1) else (k, v))
          meta.Postmortem.counters;
    }
  in
  (match Postmortem.load base with
  | Error e -> Alcotest.fail e
  | Ok (_, trace) -> (
    match Postmortem.certify bad trace with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "tampered counter certified"));
  Sys.remove (Postmortem.trace_path base);
  Sys.remove (Postmortem.meta_path base);
  Sys.remove base

(* An evicted window downgrades to a Window verdict, never Certified. *)
let test_postmortem_window_verdict () =
  let cfg = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
  let flight = Flight.create ~cap:64 () in
  let inst =
    Engine.Proc.instance ~events:flight cfg (Smbm_core.P_lwd.make cfg)
  in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config:cfg ~load:2.0 ~seed:3 ()
  in
  Experiment.run
    ~params:{ Experiment.slots = 200; flush_every = Some 50; check_every = None }
    ~workload [ inst ];
  Alcotest.(check bool) "ring wrapped" true (Flight.dropped flight > 0);
  let meta =
    {
      Postmortem.reason = "sink";
      detail = "write: disk full";
      slot = 200;
      model = "proc";
      src = inst.Instance.name;
      policy = "LWD";
      buffer = 8;
      evicted = Flight.dropped flight;
      events = List.length (Flight.dump flight);
      counters = [];
      ports = [||];
      health = [];
    }
  in
  let base = Filename.temp_file "smbm_postmortem" "" in
  (match Postmortem.write ~base meta (Flight.dump flight) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Postmortem.load base with
  | Error e -> Alcotest.fail e
  | Ok (meta', trace) -> (
    match Postmortem.certify meta' trace with
    | Ok (Postmortem.Window { evicted; oldest_slot }) ->
      Alcotest.(check int) "evicted count" (Flight.dropped flight) evicted;
      Alcotest.(check bool) "oldest slot sane" true (oldest_slot >= 0)
    | Ok (Postmortem.Certified _) -> Alcotest.fail "evicted dump certified"
    | Error e -> Alcotest.failf "certify: %s" e));
  Sys.remove (Postmortem.trace_path base);
  Sys.remove (Postmortem.meta_path base);
  Sys.remove base

let suite =
  [
    Alcotest.test_case "round trip: proc" `Quick test_round_trip_proc;
    Alcotest.test_case "round trip: value" `Quick test_round_trip_value;
    Alcotest.test_case "round trip: hybrid" `Quick test_round_trip_hybrid;
    Qc.to_alcotest prop_round_trip_proc_random;
    Alcotest.test_case "diff: seeded golden divergence" `Quick test_diff_golden;
    Alcotest.test_case "diff: rejects misaligned traces" `Quick
      test_diff_rejects_misaligned;
    Alcotest.test_case "attribution: conservation (proc)" `Quick
      test_attribution_conservation_proc;
    Qc.to_alcotest prop_attribution_conserves_gap;
    Alcotest.test_case "binary: round-trips all kinds" `Quick
      test_binary_round_trip_all_kinds;
    Alcotest.test_case "binary: rejects corrupt data" `Quick
      test_binary_rejects_corrupt;
    Alcotest.test_case "convert: lossless both ways" `Quick
      test_convert_lossless;
    Alcotest.test_case "write: failures name the path" `Quick
      test_write_failures;
    Alcotest.test_case "audit: complete trace" `Quick test_audit_complete;
    Alcotest.test_case "audit: truncation covered by markers" `Quick
      test_audit_truncated_covered;
    Alcotest.test_case "audit: backwards slot" `Quick
      test_audit_backwards_slot;
    Alcotest.test_case "audit: impossible deficit" `Quick
      test_audit_impossible_deficit;
    Alcotest.test_case "audit: scope over budget" `Quick
      test_audit_scope_over_budget;
    Alcotest.test_case "audit: uncovered deficit" `Quick
      test_audit_uncovered_deficit;
    Alcotest.test_case "postmortem: write/load/certify" `Quick
      test_postmortem_write_load_certify;
    Alcotest.test_case "postmortem: evicted window verdict" `Quick
      test_postmortem_window_verdict;
  ]
