open Smbm_core
open Smbm_sim
open Smbm_traffic
module Registry = Smbm_obs.Registry
module Sink = Smbm_obs.Sink
module Rolling = Smbm_obs.Rolling
module Health = Smbm_obs.Health
module Flight = Smbm_obs.Flight
module Postmortem = Smbm_forensics.Postmortem

type backpressure = Block | Shed
type control = Set_policy of string | Resize_buffer of int | Stop

type controller = { mu : Mutex.t; mutable queue : control list (* newest first *) }

let controller () = { mu = Mutex.create (); queue = [] }

let push t c =
  Mutex.lock t.mu;
  t.queue <- c :: t.queue;
  Mutex.unlock t.mu

let drain t =
  Mutex.lock t.mu;
  let q = List.rev t.queue in
  t.queue <- [];
  Mutex.unlock t.mu;
  q

type ingest =
  | Trace of Trace.Compact.t
  | Bank of Mmpp_bank.t
  | Workload of Workload.t

type report = {
  slots : int;
  wall : float;
  slots_per_sec : float;
  arrivals : int;
  accepted : int;
  transmitted : int;
  dropped : int;
  flushed : int;
  shed_slots : int;
  shed_packets : int;
  ring_capacity : int;
  ring_max : int;
  reconfigs : int;
  reconfigs_rejected : int;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  conservation_ok : bool;
  conservation_error : string option;
  stopped : bool;
  degraded : bool;
  health : (string * bool) list;
  postmortem : string option;
  events_evicted : int;
}

let pp_report ppf r =
  let pp_postmortem ppf = function
    | None -> ()
    | Some base ->
      Format.fprintf ppf "@,postmortem dumped: %s.{trace.bin,meta.jsonl}" base
  in
  let pp_health ppf = function
    | [] -> ()
    | rules ->
      Format.fprintf ppf "@,health %s:"
        (if r.degraded then "DEGRADED" else "ok");
      List.iter
        (fun (name, tripped) ->
          Format.fprintf ppf " %s=%s" name
            (if tripped then "TRIPPED" else "ok"))
        rules
  in
  Format.fprintf ppf
    "@[<v>slots %d in %.3f s (%.0f slots/s), engine slot time p50 %.1f / p95 \
     %.1f / p99 %.1f us@,\
     arrivals %d = accepted %d + dropped %d; transmitted %d, flushed %d@,\
     ring max %d/%d; shed %d slots (%d packets)@,\
     reconfigs %d applied, %d rejected%s@,\
     conservation %s%a%a@]"
    r.slots r.wall r.slots_per_sec r.p50_us r.p95_us r.p99_us r.arrivals
    r.accepted r.dropped r.transmitted r.flushed r.ring_max r.ring_capacity
    r.shed_slots r.shed_packets r.reconfigs r.reconfigs_rejected
    (if r.stopped then "; stopped by control" else "")
    (match r.conservation_error with
    | None -> "ok"
    | Some m -> "VIOLATED: " ^ m)
    pp_health r.health pp_postmortem r.postmortem

(* One live engine behind a model-agnostic face: the consumer loop and the
   control plane never branch on the model. *)
type engine = {
  inst : Instance.t;
  set_policy : string -> bool;  (* false: unknown name, nothing changed *)
  set_buffer : int -> int;  (* clamped to occupancy; returns applied B *)
  policy_name : unit -> string;  (* current (post-reconfiguration) name *)
  buffer_size : unit -> int;  (* current live B *)
  model_name : string;  (* "proc" or "value", for postmortem meta *)
  n_ports : int;
  queue_length : int -> int;  (* live per-port occupancy *)
}

let make_engine ?events model policy_name =
  match model with
  | Model.Proc config ->
    let find cfg name = Policies.proc_find cfg name in
    let policy =
      match find config policy_name with
      | Some p -> p
      | None ->
        invalid_arg
          ("Daemon.run: unknown processing policy \"" ^ policy_name ^ "\"")
    in
    let policy_ref = ref policy in
    let inst, sw =
      Proc_engine.create_controlled ~name:"serve" ?events config policy_ref
    in
    let current = ref policy_name in
    (* Threshold policies capture B at construction: always rebuild against
       the switch's live buffer, never the boot-time config. *)
    let live_config () =
      Proc_config.make
        ~works:(Array.copy config.Proc_config.works)
        ~buffer:(Proc_switch.buffer sw) ~speedup:config.Proc_config.speedup ()
    in
    let set_policy name =
      match find (live_config ()) name with
      | Some p ->
        policy_ref := p;
        current := name;
        true
      | None -> false
    in
    let set_buffer b =
      let applied = max b (Proc_switch.occupancy sw) in
      Proc_switch.set_buffer sw applied;
      (match find (live_config ()) !current with
      | Some p -> policy_ref := p
      | None -> ());
      applied
    in
    {
      inst;
      set_policy;
      set_buffer;
      policy_name = (fun () -> !current);
      buffer_size = (fun () -> Proc_switch.buffer sw);
      model_name = "proc";
      n_ports = Proc_config.n config;
      queue_length = Proc_switch.queue_length sw;
    }
  | Model.Value_uniform config | Model.Value_port config ->
    let port_value =
      match model with
      | Model.Value_port _ -> Some (Scenario.port_values config)
      | _ -> None
    in
    let find cfg name = Policies.value_find ?port_value cfg name in
    let policy =
      match find config policy_name with
      | Some p -> p
      | None ->
        invalid_arg
          ("Daemon.run: unknown value policy \"" ^ policy_name ^ "\"")
    in
    let policy_ref = ref policy in
    let inst, sw =
      Value_engine.create_controlled ~name:"serve" ?events config policy_ref
    in
    let current = ref policy_name in
    let live_config () =
      Value_config.make ~ports:config.Value_config.ports
        ~max_value:config.Value_config.max_value
        ~buffer:(Value_switch.buffer sw) ~speedup:config.Value_config.speedup
        ()
    in
    let set_policy name =
      match find (live_config ()) name with
      | Some p ->
        policy_ref := p;
        current := name;
        true
      | None -> false
    in
    let set_buffer b =
      let applied = max b (Value_switch.occupancy sw) in
      Value_switch.set_buffer sw applied;
      (match find (live_config ()) !current with
      | Some p -> policy_ref := p
      | None -> ());
      applied
    in
    {
      inst;
      set_policy;
      set_buffer;
      policy_name = (fun () -> !current);
      buffer_size = (fun () -> Value_switch.buffer sw);
      model_name = "value";
      n_ports = Value_config.n config;
      queue_length = Value_switch.queue_length sw;
    }

(* Instruments that exist only when telemetry is on: their absence keeps a
   plain run's server registry (and its JSONL) identical to before. *)
type stage_instruments = {
  engine_hist : Registry.histogram;
  flush_hist : Registry.histogram;
  (* The next two are written by the producer domain while the engine
     domain snapshots them — unsynchronized single-writer reads whose
     transient inconsistency only blurs a telemetry answer, never engine
     state; the end-of-run report reads them after [Domain.join]. *)
  ingest_hist : Registry.histogram;
  ring_wait_hist : Registry.histogram;
  shed_slots_ctr : Registry.counter;
  shed_packets_ctr : Registry.counter;
}

let run ?(ring_capacity = 64) ?(backpressure = Block) ?flush_every
    ?(metrics_every = 0) ?metrics_sink ?event_sink ?(controls = [])
    ?controller ?slots:max_slots ?duration ?rate ?stats_sock
    ?(stats_every = 500) ?(stats_window = 10.0) ?(telemetry = false)
    ?(p99_budget_us = 0.0) ?events ?(flight_cap = 65536) ?postmortem ~model
    ~policy ~ingest () =
  (* One event ring, on unless explicitly disabled: a caller-supplied ring
     wins, otherwise [flight_cap] sizes a fresh one (0 turns it off). *)
  let events =
    match events with
    | Some _ -> events
    | None ->
      if flight_cap > 0 then Some (Flight.create ~cap:flight_cap ()) else None
  in
  if Option.is_some event_sink && Option.is_none events then
    invalid_arg
      "Daemon.run: an event_sink needs the event ring (flight_cap > 0)";
  let ring = Spsc_ring.create ~capacity:ring_capacity () in
  let bp = match backpressure with Block -> `Block | Shed -> `Shed in
  let telemetry_on = telemetry || stats_sock <> None in
  let stats_every = max 1 stats_every in
  let max_slots =
    let trace_slots =
      match ingest with Trace c -> Some (Trace.Compact.slots c) | _ -> None
    in
    match (max_slots, trace_slots) with
    | Some a, Some b -> Some (min a b)
    | Some a, None -> Some a
    | None, t -> t
  in
  let fill =
    match ingest with
    | Trace c ->
      let w = Trace.Compact.replay c in
      fun b -> Workload.next_into w b
    | Bank bank -> fun b -> Mmpp_bank.fill bank b
    | Workload w -> fun b -> Workload.next_into w b
  in
  let server = Registry.create () in
  let stages =
    if not telemetry_on then None
    else
      Some
        {
          engine_hist =
            Registry.histogram server ~max_value:1e7 "stage/engine_us";
          flush_hist = Registry.histogram server ~max_value:1e7 "stage/flush_us";
          ingest_hist =
            Registry.histogram server ~max_value:1e7 "stage/ingest_us";
          ring_wait_hist =
            Registry.histogram server ~max_value:1e7 "stage/ring_wait_us";
          shed_slots_ctr = Registry.counter server "shed_slots";
          shed_packets_ctr = Registry.counter server "shed_packets";
        }
  in
  (* ----- ingest domain ----- *)
  let producer () =
    let t0 = Unix.gettimeofday () in
    let deadline = Option.map (fun d -> t0 +. d) duration in
    let continue i =
      (match max_slots with Some m -> i < m | None -> true)
      && match deadline with Some d -> Unix.gettimeofday () < d | None -> true
    in
    let pace i =
      match rate with
      | None -> ()
      | Some r ->
        let due = t0 +. (float_of_int (i + 1) /. r) in
        let now = Unix.gettimeofday () in
        if due > now then Unix.sleepf (due -. now)
    in
    let produce_once =
      match stages with
      | None -> fun () -> Spsc_ring.produce ring ~policy:bp ~fill ()
      | Some st ->
        (* Split the producer's slot into its two stages: ring-wait is the
           blocked stall alone (always zero under Shed, which never
           blocks), ingest is the work of generating the slot. *)
        let blocked = ref 0.0 in
        let on_block s = blocked := s in
        fun () ->
          blocked := 0.0;
          let p0 = Unix.gettimeofday () in
          let r = Spsc_ring.produce ring ~on_block ~policy:bp ~fill () in
          let dt = Unix.gettimeofday () -. p0 in
          Registry.observe st.ring_wait_hist (!blocked *. 1e6);
          Registry.observe st.ingest_hist
            (Float.max 0.0 (dt -. !blocked) *. 1e6);
          r
    in
    let rec loop i =
      if continue i then
        match produce_once () with
        | Spsc_ring.Aborted -> ()
        | Spsc_ring.Pushed | Spsc_ring.Shed ->
          pace i;
          loop (i + 1)
    in
    loop 0;
    Spsc_ring.close ring
  in
  let ingest_domain = Domain.spawn producer in
  (* ----- engine domain (the caller) ----- *)
  let engine = make_engine ?events model policy in
  let inst = engine.inst in
  let src =
    match events with
    | Some f -> Flight.intern f inst.Instance.name
    | None -> 0
  in
  let slot_hist = Registry.histogram server ~max_value:1e7 "slot_time_us" in
  let ring_gauge = Registry.gauge server "ring_occupancy" in
  let slots_ctr = Registry.counter server "slots" in
  let reconfig_ctr = Registry.counter server "reconfigs" in
  let rejected_ctr = Registry.counter server "reconfigs_rejected" in
  let slot = ref 0 in
  let stopped = ref false in
  let reconfigs = ref 0 in
  let rejected = ref 0 in
  let record_reconfig what target =
    incr reconfigs;
    Registry.incr reconfig_ctr;
    match events with
    | None -> ()
    | Some f -> Flight.reconfig f ~slot:!slot ~src ~what ~target
  in
  let reject () =
    incr rejected;
    Registry.incr rejected_ctr
  in
  (* ----- black box -----
     On the first health trip, latched sink error or engine exception,
     dump the flight window plus a state snapshot.  Only the first trigger
     writes (the earliest evidence is the least contaminated), and a
     failing dump never kills the daemon. *)
  let health_states_now = ref (fun () -> []) in
  let postmortem_written = ref None in
  let dump_postmortem ~reason ~detail =
    match (postmortem, events) with
    | Some base, Some f when !postmortem_written = None ->
      let m = inst.Instance.metrics in
      let events = Flight.dump f in
      let meta =
        {
          Postmortem.reason;
          detail;
          slot = !slot;
          model = engine.model_name;
          src = inst.Instance.name;
          policy = engine.policy_name ();
          buffer = engine.buffer_size ();
          evicted = Flight.dropped f;
          events = List.length events;
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
              ("slots", !slot);
              ("shed_slots", Spsc_ring.shed_slots ring);
              ("shed_packets", Spsc_ring.shed_packets ring);
              ("reconfigs", !reconfigs);
              ("reconfigs_rejected", !rejected);
            ];
          ports = Array.init engine.n_ports engine.queue_length;
          health = !health_states_now ();
        }
      in
      (match Postmortem.write ~base meta events with
      | Ok () -> postmortem_written := Some base
      | Error _ -> ())
    | _ -> ()
  in
  let sink_checked = ref false in
  let check_sinks () =
    if not !sink_checked then
      let latched sink =
        match sink with Some s -> Sink.failure s | None -> None
      in
      match (latched metrics_sink, latched event_sink) with
      | None, None -> ()
      | Some e, _ | None, Some e ->
        sink_checked := true;
        dump_postmortem ~reason:"sink" ~detail:(Sink.error_to_string e)
  in
  let apply = function
    | Set_policy name ->
      if engine.set_policy name then record_reconfig "policy" name
      else reject ()
    | Resize_buffer b ->
      if b < 1 then reject ()
      else record_reconfig "buffer" (string_of_int (engine.set_buffer b))
    | Stop ->
      stopped := true;
      Spsc_ring.abort ring
  in
  let pending =
    ref (List.stable_sort (fun (a, _) (b, _) -> compare a b) controls)
  in
  let drain_controls () =
    let rec scripted () =
      match !pending with
      | (s, c) :: rest when s <= !slot ->
        pending := rest;
        apply c;
        scripted ()
      | _ -> ()
    in
    scripted ();
    match controller with
    | None -> ()
    | Some ctl -> List.iter apply (drain ctl)
  in
  let flush_metrics () =
    (match metrics_sink with
    | None -> ()
    | Some sink ->
      let labels =
        [ ("src", inst.Instance.name); ("slot", string_of_int !slot) ]
      in
      List.iter (Sink.line sink)
        (Metrics.to_jsonl ~labels inst.Instance.metrics);
      List.iter (Sink.line sink) (Registry.to_jsonl ~labels server))
  in
  (* Events reach [event_sink] from a cursor into the ring, at the end of
     every slot.  The ring is never cleared, so the postmortem window
     survives; a slot that overflows the ring past the cursor shows up in
     the sink as a [Truncated] marker and in the report. *)
  let drained = ref 0 in
  let events_evicted = ref 0 in
  let drain_events () =
    match (events, event_sink) with
    | Some f, Some sink ->
      events_evicted :=
        !events_evicted + max 0 (Flight.dropped f - !drained);
      Flight.iter_from ~from:!drained (Sink.event sink) f;
      drained := Flight.total f
    | _ -> ()
  in
  let t_start = Unix.gettimeofday () in
  (* ----- telemetry plane (created always, fed only when on) ----- *)
  let m = inst.Instance.metrics in
  let rolling = Rolling.create ~window:stats_window () in
  let r_slots = Rolling.counter rolling "slots" in
  let r_arr = Rolling.counter rolling "arrivals" in
  let r_acc = Rolling.counter rolling "accepted" in
  let r_drop = Rolling.counter rolling "dropped" in
  let r_shed = Rolling.counter rolling "shed_slots" in
  let r_slot_us = Rolling.histogram rolling "slot_time_us" in
  let prev_arr = ref 0 and prev_acc = ref 0 and prev_drop = ref 0 in
  let prev_shed = ref 0 and prev_shed_p = ref 0 in
  (* Rules are evaluated at publication instants; [eval_now] carries that
     instant into the window reads so rules never touch the wall clock. *)
  let eval_now = ref 0.0 in
  let health =
    let on_transition (e : Health.event) =
      (match events with
      | None -> ()
      | Some f ->
        Flight.health f ~slot:!slot ~src ~rule:e.Health.rule
          ~tripped:e.Health.tripped ~reason:e.Health.reason);
      if e.Health.tripped then
        dump_postmortem ~reason:"health"
          ~detail:(e.Health.rule ^ ": " ^ e.Health.reason)
    in
    let conservation =
      Health.rule ~name:"conservation" ~trip_after:1 ~clear_after:1 (fun () ->
          match Metrics.check_conservation m with
          | () -> Health.Pass
          | exception Invalid_argument msg -> Health.Fail msg)
    in
    let p99_rule =
      if p99_budget_us <= 0.0 then []
      else
        [
          Health.rule ~name:"p99_slot_time" (fun () ->
              let p99 = Rolling.quantile r_slot_us ~now:!eval_now 0.99 in
              if p99 > p99_budget_us then
                Health.Fail
                  (Printf.sprintf "windowed p99 %.1f us over budget %.1f us"
                     p99 p99_budget_us)
              else Health.Pass);
        ]
    in
    let ring_high_water =
      Health.rule ~name:"ring_high_water" (fun () ->
          let occ = Spsc_ring.length ring in
          if float_of_int occ >= 0.9 *. float_of_int ring_capacity then
            Health.Fail (Printf.sprintf "ring occupancy %d/%d" occ ring_capacity)
          else Health.Pass)
    in
    let shed_rate =
      Health.rule ~name:"shed_rate" (fun () ->
          match Rolling.total r_shed ~now:!eval_now with
          | 0 -> Health.Pass
          | s -> Health.Fail (Printf.sprintf "%d slots shed in window" s))
    in
    Health.create ~on_transition
      ((conservation :: p99_rule) @ [ ring_high_water; shed_rate ])
  in
  health_states_now :=
    (fun () ->
      List.map (fun (n, s) -> (n, s.Health.v_tripped)) (Health.states health));
  let feed_rolling st now slot_us =
    Rolling.incr r_slots ~now;
    let a = Metrics.arrivals m in
    Rolling.add r_arr ~now (a - !prev_arr);
    prev_arr := a;
    let ac = Metrics.accepted m in
    Rolling.add r_acc ~now (ac - !prev_acc);
    prev_acc := ac;
    let d = Metrics.dropped m in
    Rolling.add r_drop ~now (d - !prev_drop);
    prev_drop := d;
    (* Shed accounting lives in the ring's producer-side atomics; mirror
       the deltas into window and cumulative server counters here so every
       published rate flows from one snapshot mechanism. *)
    let s = Spsc_ring.shed_slots ring in
    let ds = max 0 (s - !prev_shed) in
    Rolling.add r_shed ~now ds;
    Registry.add st.shed_slots_ctr ds;
    prev_shed := s;
    let p = Spsc_ring.shed_packets ring in
    Registry.add st.shed_packets_ctr (max 0 (p - !prev_shed_p));
    prev_shed_p := p;
    Rolling.observe r_slot_us ~now slot_us
  in
  let published : Telemetry.view option Atomic.t = Atomic.make None in
  let publish now =
    eval_now := now;
    Health.evaluate health;
    let server_snap = Registry.snapshot server in
    let window =
      {
        Telemetry.w_span = Rolling.span rolling ~now;
        slots_per_sec = Rolling.rate r_slots ~now;
        arrivals_per_sec = Rolling.rate r_arr ~now;
        accepted_per_sec = Rolling.rate r_acc ~now;
        drops_per_sec = Rolling.rate r_drop ~now;
        shed_slots_per_sec = Rolling.rate r_shed ~now;
        p50_us = Rolling.quantile r_slot_us ~now 0.5;
        p95_us = Rolling.quantile r_slot_us ~now 0.95;
        p99_us = Rolling.quantile r_slot_us ~now 0.99;
      }
    in
    (* One atomic store publishes an immutable view; the stats server only
       ever [Atomic.get]s it — no lock is shared with this loop. *)
    Atomic.set published
      (Some
         {
           Telemetry.at = now;
           slot = !slot;
           uptime = now -. t_start;
           policy = engine.policy_name ();
           buffer = engine.buffer_size ();
           ring_occupancy = Spsc_ring.length ring;
           ring_capacity;
           ring_max = Spsc_ring.max_occupancy ring;
           shed_slots = Spsc_ring.shed_slots ring;
           shed_packets = Spsc_ring.shed_packets ring;
           window;
           engine = Registry.snapshot (Metrics.registry m);
           server = server_snap;
           spans = Telemetry.stage_aggregates server_snap;
           health = Health.states health;
           degraded = Health.degraded health;
         })
  in
  let stats_server =
    match stats_sock with
    | None -> None
    | Some path -> (
      match
        Telemetry.start ~path ~latest:(fun () -> Atomic.get published)
      with
      | Ok s -> Some s
      | Error msg -> invalid_arg ("Daemon.run: " ^ msg))
  in
  let step batch =
    let t0 = Unix.gettimeofday () in
    Instance.step_batch inst ~batch;
    let t1 = match stages with None -> t0 | Some _ -> Unix.gettimeofday () in
    incr slot;
    Registry.incr slots_ctr;
    (match flush_every with
    | Some f when f > 0 && !slot mod f = 0 ->
      inst.Instance.flush ();
      (match stages with
      | Some st ->
        Registry.observe st.flush_hist ((Unix.gettimeofday () -. t1) *. 1e6)
      | None -> ())
    | _ -> ());
    (* Slot boundary: bookkeeping done, next slot's arrivals not yet
       offered — the only point where reconfiguration is legal. *)
    drain_controls ();
    let t_end = Unix.gettimeofday () in
    Registry.observe slot_hist ((t_end -. t0) *. 1e6);
    Registry.set ring_gauge (float_of_int (Spsc_ring.length ring));
    (match stages with
    | Some st ->
      Registry.observe st.engine_hist ((t1 -. t0) *. 1e6);
      feed_rolling st t_end ((t_end -. t0) *. 1e6);
      if !slot mod stats_every = 0 then publish t_end
    | None -> ());
    drain_events ();
    if metrics_every > 0 && !slot mod metrics_every = 0 then begin
      flush_metrics ();
      check_sinks ()
    end
  in
  let rec consume () =
    if not !stopped then
      match Spsc_ring.consume ring ~stop:(fun () -> !stopped) ~f:step with
      | Spsc_ring.Consumed -> consume ()
      | Spsc_ring.Drained | Spsc_ring.Stopped -> ()
  in
  (try consume ()
   with exn ->
     (* The engine died mid-run: that is exactly what the black box is
        for.  Dump, unblock and reap the producer, then re-raise. *)
     dump_postmortem ~reason:"exception" ~detail:(Printexc.to_string exn);
     Spsc_ring.abort ring;
     (try Domain.join ingest_domain with _ -> ());
     raise exn);
  Domain.join ingest_domain;
  let wall = Unix.gettimeofday () -. t_start in
  flush_metrics ();
  check_sinks ();
  (* Final publication (one last health evaluation included), then take the
     socket down before reporting. *)
  if telemetry_on then publish (Unix.gettimeofday ());
  drain_events ();
  (match stats_server with Some s -> Telemetry.stop s | None -> ());
  let conservation_ok, conservation_error =
    try
      inst.Instance.check ();
      (true, None)
    with Invalid_argument m -> (false, Some m)
  in
  let q =
    let h = Registry.histogram_values slot_hist in
    fun p -> Smbm_prelude.Histogram.quantile h p
  in
  let degraded, health_states =
    if telemetry_on then
      ( Health.degraded health,
        List.map
          (fun (n, s) -> (n, s.Health.v_tripped))
          (Health.states health) )
    else (false, [])
  in
  {
    slots = !slot;
    wall;
    slots_per_sec = (if wall > 0. then float_of_int !slot /. wall else 0.);
    arrivals = Metrics.arrivals m;
    accepted = Metrics.accepted m;
    transmitted = Metrics.transmitted m;
    dropped = Metrics.dropped m;
    flushed = Metrics.flushed m;
    shed_slots = Spsc_ring.shed_slots ring;
    shed_packets = Spsc_ring.shed_packets ring;
    ring_capacity;
    ring_max = Spsc_ring.max_occupancy ring;
    reconfigs = !reconfigs;
    reconfigs_rejected = !rejected;
    p50_us = q 0.5;
    p95_us = q 0.95;
    p99_us = q 0.99;
    conservation_ok;
    conservation_error;
    stopped = !stopped;
    degraded;
    health = health_states;
    postmortem = !postmortem_written;
    events_evicted = !events_evicted;
  }
