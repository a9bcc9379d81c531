(* The event ring: struct-of-arrays semantics (exact capacity, wrap,
   truncation metadata, interning, clear, reading from a cursor), the
   engine seam's zero observer effect — metrics bit-identical with the ring
   on — and the load-bearing cost property: recording allocates nothing,
   per call and over whole runs of every producer. *)

open Smbm_obs
open Smbm_sim

(* --- ring semantics --- *)

let test_ring_wrap_and_dump () =
  let f = Flight.create ~scope:"x=8" ~cap:3 () in
  Alcotest.(check int) "capacity is exact" 3 (Flight.capacity f);
  let src = Flight.intern f "w" in
  for slot = 0 to 9 do
    Flight.arrival f ~slot ~src ~dest:slot
  done;
  Alcotest.(check int) "length" 3 (Flight.length f);
  Alcotest.(check int) "total" 10 (Flight.total f);
  Alcotest.(check int) "dropped" 7 (Flight.dropped f);
  Alcotest.(check (list int)) "survivors oldest first" [ 7; 8; 9 ]
    (List.map (fun (e : Event.t) -> e.Event.slot) (Flight.events f));
  (match Flight.dump f with
  | meta :: rest ->
    Alcotest.(check bool) "truncated meta" true
      (meta.Event.kind = Event.Truncated { evicted = 7 });
    Alcotest.(check int) "meta slot = oldest survivor" 7 meta.Event.slot;
    Alcotest.(check string) "meta src = scope" "x=8" meta.Event.src;
    Alcotest.(check bool) "dump tail = events" true (rest = Flight.events f)
  | [] -> Alcotest.fail "empty dump");
  Flight.clear f;
  Alcotest.(check int) "cleared length" 0 (Flight.length f);
  Alcotest.(check int) "cleared total" 0 (Flight.total f);
  (* No marker before the post-clear ring wraps again. *)
  Flight.arrival f ~slot:11 ~src ~dest:0;
  (match Flight.dump f with
  | [ e ] -> Alcotest.(check int) "post-clear dump" 11 e.Event.slot
  | _ -> Alcotest.fail "expected one event after clear");
  (* Interned ids survive the clear. *)
  Alcotest.(check int) "id stable across clear" src (Flight.intern f "w")

(* Reading from a cursor: exactly the events recorded since, with a marker
   counting those already overwritten. *)
let test_iter_from_cursor () =
  let f = Flight.create ~scope:"s" ~cap:4 () in
  let src = Flight.intern f "w" in
  (* A marker reads as (-evicted, slot), an arrival as (slot, slot). *)
  let read from =
    let acc = ref [] in
    Flight.iter_from ~from
      (fun (e : Event.t) ->
        let key =
          match e.Event.kind with
          | Event.Truncated { evicted } -> -evicted
          | _ -> e.Event.slot
        in
        acc := (key, e.Event.slot) :: !acc)
      f;
    List.rev !acc
  in
  for slot = 0 to 2 do
    Flight.arrival f ~slot ~src ~dest:0
  done;
  let cursor = Flight.total f in
  Alcotest.(check (list (pair int int))) "nothing new" [] (read cursor);
  for slot = 3 to 4 do
    Flight.arrival f ~slot ~src ~dest:0
  done;
  Alcotest.(check (list (pair int int))) "since the cursor" [ (3, 3); (4, 4) ]
    (read cursor);
  for slot = 5 to 9 do
    Flight.arrival f ~slot ~src ~dest:0
  done;
  (* Events 3..9 since the cursor, 6..9 survive: a marker for 3 lost,
     stamped with the oldest surviving slot. *)
  Alcotest.(check (list (pair int int)))
    "overrun cursor" [ (-3, 6); (6, 6); (7, 7); (8, 8); (9, 9) ] (read cursor);
  Alcotest.(check bool) "from 0 = dump" true
    (let acc = ref [] in
     Flight.iter_from ~from:0 (fun e -> acc := e :: !acc) f;
     List.rev !acc = Flight.dump f)

let test_all_kinds_box_round_trip () =
  let f = Flight.create ~cap:16 () in
  let src = Flight.intern f "eng" in
  Flight.arrival f ~slot:1 ~src ~dest:3;
  Flight.accept f ~slot:1 ~src ~dest:3;
  Flight.push_out f ~slot:2 ~src ~victim:1 ~dest:2 ~lost:4;
  Flight.drop f ~slot:2 ~src ~dest:0 ~value:6;
  Flight.transmit f ~slot:3 ~src ~dest:4 ~value:9 ~latency:17;
  Flight.transmit_bulk f ~slot:3 ~src ~dest:(-1) ~count:3 ~value:12;
  Flight.flush f ~slot:4 ~src ~count:7;
  Flight.slot_end f ~slot:4 ~src ~occupancy:42;
  Flight.reconfig f ~slot:5 ~src ~what:"policy" ~target:"LQD";
  Flight.health f ~slot:6 ~src ~rule:"ring" ~tripped:true ~reason:"over";
  let expect =
    List.map
      (fun (slot, kind) -> Event.make ~src:"eng" ~slot kind)
      [
        (1, Event.Arrival { dest = 3 });
        (1, Event.Accept { dest = 3 });
        (2, Event.Push_out { victim = 1; dest = 2; lost = 4 });
        (2, Event.Drop { dest = 0; value = 6 });
        (3, Event.Transmit { dest = 4; value = 9; latency = 17 });
        (3, Event.Transmit_bulk { dest = -1; count = 3; value = 12 });
        (4, Event.Flush { count = 7 });
        (4, Event.Slot_end { occupancy = 42 });
        (5, Event.Reconfig { what = "policy"; target = "LQD" });
        (6, Event.Health { rule = "ring"; tripped = true; reason = "over" });
      ]
  in
  Alcotest.(check bool) "boxed events" true (Flight.events f = expect);
  Alcotest.(check int) "no eviction" 0 (Flight.dropped f)

let test_intern_scope_and_ids () =
  let f = Flight.create ~scope:"x=8" ~cap:4 () in
  let a = Flight.intern f "LWD" in
  Alcotest.(check string) "scope-qualified" "x=8/LWD" (Flight.name_of f a);
  Alcotest.(check int) "idempotent" a (Flight.intern f "LWD");
  let b = Flight.intern f "LQD" in
  Alcotest.(check bool) "dense distinct ids" true (b <> a);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Flight.name_of: unknown id 99") (fun () ->
      ignore (Flight.name_of f 99))

(* --- the engine seam: zero observer effect --- *)

let mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = 10 }

let run_proc ?events () =
  let config = Smbm_core.Proc_config.contiguous ~k:4 ~buffer:8 () in
  let inst =
    Proc_engine.instance ?events config (Smbm_core.P_lwd.make config)
  in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config ~load:2.0 ~seed:11 ()
  in
  Experiment.run
    ~params:{ Experiment.slots = 400; flush_every = Some 100; check_every = None }
    ~workload [ inst ];
  inst

let test_proc_engine_bit_identical_with_flight () =
  let plain = run_proc () in
  let flight = Flight.create ~cap:65536 () in
  let flown = run_proc ~events:flight () in
  Alcotest.(check (list string)) "metrics bit-identical"
    (Metrics.to_jsonl plain.Instance.metrics)
    (Metrics.to_jsonl flown.Instance.metrics);
  Alcotest.(check bool) "flight saw the run" true (Flight.total flight > 400)

(* --- the cost property: recording allocates nothing --- *)

let test_record_is_allocation_free () =
  let f = Flight.create ~cap:1024 () in
  let src = Flight.intern f "eng" in
  let burst () =
    for slot = 1 to 10_000 do
      Flight.arrival f ~slot ~src ~dest:3;
      Flight.accept f ~slot ~src ~dest:3;
      Flight.push_out f ~slot ~src ~victim:1 ~dest:2 ~lost:4;
      Flight.drop f ~slot ~src ~dest:0 ~value:5;
      Flight.transmit f ~slot ~src ~dest:1 ~value:2 ~latency:3;
      Flight.transmit_bulk f ~slot ~src ~dest:(-1) ~count:2 ~value:4;
      Flight.flush f ~slot ~src ~count:7;
      Flight.slot_end f ~slot ~src ~occupancy:9;
      (* The string-carrying kinds too: their payloads are interned after
         the first call, so steady state is int-only as well. *)
      Flight.reconfig f ~slot ~src ~what:"policy" ~target:"LQD";
      Flight.health f ~slot ~src ~rule:"ring" ~tripped:true ~reason:"over"
    done
  in
  burst () (* warm-up: interning done, ring arrays touched *);
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  burst ();
  let dw = Gc.minor_words () -. w0 in
  (* 100k records; the only tolerated words are the measurement's own
     boxed-float results.  Anything per-record would show as >= 200k. *)
  Alcotest.(check bool)
    (Printf.sprintf "minor words for 100k records: %.0f" dw)
    true (dw < 256.0)

(* Whole runs of every producer: attaching a ring changes no counter and
   allocates not one extra minor word.  An emit that boxes an event whether
   or not anyone records it, or a ring write that allocates, shows up here
   as a difference. *)
let producers =
  let open Smbm_core in
  let proc = Proc_config.contiguous ~k:4 ~buffer:8 () in
  let value = Value_config.make ~ports:4 ~max_value:8 ~buffer:8 () in
  let hybrid =
    Smbm_hybrid.Hybrid_config.contiguous ~k:4 ~max_value:8 ~buffer:16 ()
  in
  let proc_traffic () =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config:proc ~load:2.0 ~seed:11 ()
  in
  let value_traffic () =
    Smbm_traffic.Scenario.value_uniform_workload ~mmpp ~config:value ~load:2.0
      ~seed:7 ()
  in
  let hybrid_traffic () =
    let rng = Smbm_prelude.Rng.create ~seed:5 in
    Smbm_traffic.Workload.of_slots
      (Array.init 400 (fun _ ->
           List.init (Smbm_prelude.Rng.poisson rng ~lambda:3.0) (fun _ ->
               let dest = Smbm_prelude.Rng.int rng 4 in
               Arrival.make ~dest ~value:(1 + Smbm_prelude.Rng.int rng 8) ())))
  in
  [
    ( "proc",
      (fun ?events () -> Proc_engine.instance ?events proc (P_lwd.make proc)),
      proc_traffic );
    ( "value",
      (fun ?events () ->
        Value_engine.instance ?events value (V_mrd.make value)),
      value_traffic );
    ( "hybrid",
      (fun ?events () ->
        Smbm_hybrid.Hybrid_engine.instance ?events hybrid
          Smbm_hybrid.Hybrid_policy.lwd),
      hybrid_traffic );
    ( "OPT proc",
      (fun ?events () -> Opt_ref.proc_instance ?events proc),
      proc_traffic );
    ( "OPT value",
      (fun ?events () -> Opt_ref.value_instance ?events value),
      value_traffic );
  ]

let test_runs_allocate_alike_traced_or_not () =
  List.iter
    (fun (name, make, traffic) ->
      let run ?events () =
        let inst = make ?events () and workload = traffic () in
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        Experiment.run
          ~params:
            {
              Experiment.slots = 400;
              flush_every = Some 100;
              check_every = None;
            }
          ~workload [ inst ];
        (Gc.minor_words () -. w0, inst)
      in
      let off_words, off = run () in
      let ring = Flight.create ~cap:1024 () in
      let on_words, on = run ~events:ring () in
      Alcotest.(check (list string))
        (name ^ ": metrics bit-identical")
        (Metrics.to_jsonl off.Instance.metrics)
        (Metrics.to_jsonl on.Instance.metrics);
      Alcotest.(check bool) (name ^ ": ring saw the run") true
        (Flight.total ring > 400);
      Alcotest.(check (float 0.)) (name ^ ": minor words") off_words on_words)
    producers

let suite =
  [
    Alcotest.test_case "ring wrap and dump" `Quick test_ring_wrap_and_dump;
    Alcotest.test_case "all kinds box round-trip" `Quick
      test_all_kinds_box_round_trip;
    Alcotest.test_case "intern scope and ids" `Quick test_intern_scope_and_ids;
    Alcotest.test_case "iter_from a cursor" `Quick test_iter_from_cursor;
    Alcotest.test_case "proc engine bit-identical with flight" `Quick
      test_proc_engine_bit_identical_with_flight;
    Alcotest.test_case "record is allocation-free" `Quick
      test_record_is_allocation_free;
    Alcotest.test_case "runs allocate alike traced or not" `Quick
      test_runs_allocate_alike_traced_or_not;
  ]
