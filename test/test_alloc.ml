(* The engine slot loop's allocation budget: every registry policy on its
   engine, and both OPT references, step a fixed recorded trace without
   allocating.  Each instance is warmed on the trace's first slots (index
   trees built, lazily grown tables filled), then measured slot by slot over
   the rest, once untraced and once with a wrapping [Flight] ring attached.
   A boxed float, an option or a decision block on the per-packet or
   per-slot path shows as one or more words per slot, far above the
   budget.

   The raw switch slot loop is held to the same budget across a size panel
   up to 1024 ports, and one whole sweep point (set-up plus run) to the
   same marginal budget and a fixed word count per point, as is the
   materialization of a panel's trace.

   The serve daemon is held to the same budget end to end, on both of its
   domains, and its SPSC ring alone to a tenth of it per hand-off. *)

open Smbm_core
open Smbm_sim
module Compact = Smbm_traffic.Trace.Compact
module Scenario = Smbm_traffic.Scenario
module Workload = Smbm_traffic.Workload
module Flight = Smbm_obs.Flight
module Rng = Smbm_prelude.Rng
module Daemon = Smbm_serve.Daemon
module Model = Smbm_sim.Model
module Mmpp_bank = Smbm_serve.Mmpp_bank
module Spsc_ring = Smbm_serve.Spsc_ring

let warm_slots = 500
let measured_slots = 2_000
let budget = 0.1

let mmpp = { Scenario.default_mmpp with sources = 60 }
let proc = Proc_config.contiguous ~k:8 ~buffer:32 ()
let hybrid = Proc_config.contiguous ~k:8 ~max_value:8 ~buffer:32 ()
let value = Value_config.make ~ports:8 ~max_value:8 ~buffer:32 ()
let record w = Compact.of_workload w ~slots:(warm_slots + measured_slots)

(* Overloaded (load 2) so every admission branch runs: accepts, drops and
   push-outs on a full buffer. *)
let proc_trace =
  lazy (record (Scenario.proc_workload ~mmpp ~config:proc ~load:2.0 ~seed:3 ()))

let value_trace =
  lazy
    (record
       (Scenario.value_uniform_workload ~mmpp ~config:value ~load:2.0 ~seed:5
          ()))

let port_trace =
  lazy
    (record
       (Scenario.value_port_workload ~mmpp ~config:value ~load:2.0 ~seed:7 ()))

let words_per_slot (inst : Instance.t) trace =
  let workload = Compact.replay trace in
  let batch = Arrival_batch.create () in
  let step () =
    Workload.next_into workload batch;
    Instance.step_batch inst ~batch
  in
  for _ = 1 to warm_slots do
    step ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to measured_slots do
    step ()
  done;
  let w1 = Gc.minor_words () in
  inst.check ();
  (w1 -. w0) /. float_of_int measured_slots

type case = {
  name : string;
  make : ?events:Flight.t -> unit -> Instance.t;
  trace : Compact.t Lazy.t;
}

let cases () =
  let proc_cases =
    List.map
      (fun (p : Proc_switch.t Policy.t) ->
        {
          name = "proc " ^ p.name;
          make = (fun ?events () -> Engine.Proc.instance ?events proc p);
          trace = proc_trace;
        })
      (Policies.proc_extended proc)
  and hybrid_cases =
    List.map
      (fun (p : Proc_switch.t Policy.t) ->
        {
          name = "hybrid " ^ p.name;
          make = (fun ?events () -> Engine.Proc.instance ?events hybrid p);
          trace = value_trace;
        })
      (Policies.hybrid hybrid)
  and value_cases tag policies trace =
    List.map
      (fun (p : Value_switch.t Policy.t) ->
        {
          name = tag ^ " " ^ p.name;
          make = (fun ?events () -> Engine.Value.instance ?events value p);
          trace;
        })
      policies
  in
  proc_cases @ hybrid_cases
  @ value_cases "value-uniform" (Policies.value_uniform value) value_trace
  @ value_cases "value-port"
      (Policies.value_port ~port_value:(Scenario.port_values value) value)
      port_trace
  @ [
      {
        name = "OPT proc";
        make = (fun ?events () -> Opt_ref.proc_instance ?events proc);
        trace = proc_trace;
      };
      {
        name = "OPT value";
        make = (fun ?events () -> Opt_ref.value_instance ?events value);
        trace = value_trace;
      };
    ]

(* Policies can be stateful (RAND's generator), so each arm builds its own
   registry lists. *)
let check_all ~traced () =
  let over =
    List.filter_map
      (fun c ->
        let events =
          if traced then Some (Flight.create ~cap:4096 ()) else None
        in
        let w = words_per_slot (c.make ?events ()) (Lazy.force c.trace) in
        if w > budget then Some (Printf.sprintf "%s: %.2f" c.name w) else None)
      (cases ())
  in
  Alcotest.(check (list string))
    (Printf.sprintf "instances over %.1f minor words/slot" budget)
    [] over

(* ----- the raw switch slot loop across a size panel ----- *)

(* One switch of either model behind the three operations the loop needs:
   accept one packet at [dest], run one slot's transmission and advance the
   clock (returning how many buffer cells it freed), and the full test. *)
type flat = { accept : int -> unit; slot : unit -> int; is_full : unit -> bool }

let no_transmit ~dest:_ ~value:_ ~arrival:_ = ()

(* The paper's contiguous configuration at n = 4 (works 1..4); unit works
   above it, the classical shared-memory switch, so every port completes a
   packet every slot. *)
let flat_proc ~n ~buffer =
  let config =
    if n <= 4 then Proc_config.contiguous ~k:n ~buffer ()
    else Proc_config.uniform ~n ~work:1 ~buffer ()
  in
  let sw = Proc_switch.create config in
  {
    accept = (fun dest -> Proc_switch.accept sw ~dest ~value:1);
    slot =
      (fun () ->
        let freed = Proc_switch.transmit_phase sw ~on_transmit:no_transmit in
        Proc_switch.advance_slot sw;
        freed);
    is_full = (fun () -> Proc_switch.is_full sw);
  }

let flat_value ~n ~buffer =
  let k = 16 in
  let sw =
    Value_switch.create (Value_config.make ~ports:n ~max_value:k ~buffer ())
  in
  let rng = Rng.create ~seed:5 in
  {
    accept =
      (fun dest -> Value_switch.accept sw ~dest ~value:(Rng.int rng k + 1));
    slot =
      (fun () ->
        let freed = Value_switch.transmit_phase sw ~on_transmit:no_transmit in
        Value_switch.advance_slot sw;
        freed);
    is_full = (fun () -> Value_switch.is_full sw);
  }

(* (ports, buffer, measured slots): from the paper's 4-port switch up to
   1024 ports, the working set growing past cache. *)
let flat_sizes =
  [
    (4, 64, 20_000);
    (64, 16_384, 2_000);
    (256, 65_536, 1_000);
    (1024, 262_144, 200);
  ]

(* The switch is filled once; every slot then re-accepts exactly what it
   transmitted, so occupancy is conserved and the measured slots are
   steady-state churn.  Nothing sits between the loop and the switch: no
   workload, no metrics, no admission policy. *)
let flat_words_per_slot sw ~n ~slots =
  let rng = Rng.create ~seed:3 in
  let d = ref 0 in
  while not (sw.is_full ()) do
    sw.accept (!d mod n);
    incr d
  done;
  let run slots =
    for _ = 1 to slots do
      for _ = 1 to sw.slot () do
        sw.accept (Rng.int rng n)
      done
    done
  in
  run (slots / 4);
  let w0 = Gc.minor_words () in
  run slots;
  (Gc.minor_words () -. w0) /. float_of_int slots

let check_flat make () =
  Alcotest.(check (list string))
    (Printf.sprintf "sizes over %.1f minor words/slot" budget)
    []
    (List.filter_map
       (fun (n, buffer, slots) ->
         let w = flat_words_per_slot (make ~n ~buffer) ~n ~slots in
         if w > budget then Some (Printf.sprintf "n = %d: %.3f" n w) else None)
       flat_sizes)

(* A flushout empties every port back onto the free list.  A full 16-port
   switch of the paper's contiguous works, refilled and flushed a hundred
   times after one warming round (which grows the port rings), must
   allocate nothing in all of them. *)
let check_flush () =
  let n = 16 in
  let sw = Proc_switch.create (Proc_config.contiguous ~k:n ~buffer:256 ()) in
  let round () =
    let d = ref 0 in
    while not (Proc_switch.is_full sw) do
      Proc_switch.accept sw ~dest:(!d mod n) ~value:1;
      incr d
    done;
    ignore (Proc_switch.flush sw : int)
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  Alcotest.(check (float 0.0)) "words over 100 full flushouts" 0.0
    (Gc.minor_words () -. w0)

(* ----- one sweep point and one panel trace ----- *)

(* A point at 50 sources, the scale its word budgets were recorded at,
   with twenty flushouts whatever its length: a flushout's words then land
   in the point's fixed cost, not its marginal one. *)
let point_slots = 4_000

let point_base ~slots =
  {
    Sweep.default_base with
    slots;
    flush_every = Some (slots / 20);
    mmpp = { Scenario.default_mmpp with sources = 50 };
  }

(* Minor words of [Sweep.setup] plus [Experiment.run] at [slots]: the OPT
   reference and every policy of the model, exactly one Fig. 5 point. *)
let point_words model ~slots =
  let base = point_base ~slots in
  let w0 = Gc.minor_words () in
  let workload, instances = Sweep.setup model base in
  Experiment.run
    ~params:
      { Experiment.slots; flush_every = base.flush_every; check_every = None }
    ~workload instances;
  Gc.minor_words () -. w0

(* Per model: its recorded words per slot of one whole point at
   [point_slots], whose budget is that times 1.2 plus one word per slot, and
   the recorded words of materializing one B-axis panel trace at the same
   scale, whose budget is a tenth above it. *)
let point_models =
  [
    ("proc", Sweep.Proc, 1.9475, 601.);
    ("value_uniform", Sweep.Value_uniform, 1.758, 1_330.);
    ("value_port", Sweep.Value_port, 2.16, 1_329.);
  ]

(* Two gates per model.  The marginal words per slot, from N slots against
   2N as the daemon cases measure, hold the slot loop under a full point's
   instance list to [budget]; the words of one N-slot point, set-up
   included, hold the fixed cost.  A short first run warms whatever the
   process initialises once. *)
let check_point () =
  Alcotest.(check (list string))
    (Printf.sprintf "points over %.1f marginal words/slot or their word budget"
       budget)
    []
    (List.concat_map
       (fun (name, model, recorded, _) ->
         ignore (point_words model ~slots:200);
         let once = point_words model ~slots:point_slots in
         let twice = point_words model ~slots:(2 * point_slots) in
         let marginal = (twice -. once) /. float_of_int point_slots in
         let fixed_budget =
           ((recorded *. 1.2) +. 1.0) *. float_of_int point_slots
         in
         (if marginal > budget then
            [ Printf.sprintf "%s: %.3f words/slot" name marginal ]
          else [])
         @
         if once > fixed_budget then
           [ Printf.sprintf "%s: %.0f words > %.0f" name once fixed_budget ]
         else [])
       point_models)

let panel_trace_words model =
  let base = point_base ~slots:point_slots in
  let w0 = Gc.minor_words () in
  ignore (Sweep.materialize_trace ~base ~model ~axis:Sweep.B ~x:16);
  Gc.minor_words () -. w0

(* Generation, one workload set-up and the copy into the off-heap columns:
   the growable columns live on the major heap, so what is left is the
   set-up, and a boxed value per slot anywhere on that path (8 000 words)
   is over fifty times the headroom. *)
let check_panel_trace () =
  Alcotest.(check (list string))
    "panel traces over their word budget" []
    (List.filter_map
       (fun (name, model, _, recorded) ->
         let w = panel_trace_words model in
         if w > recorded *. 1.1 then
           Some
             (Printf.sprintf "%s: %.0f words > %.0f" name w (recorded *. 1.1))
         else None)
       point_models)

(* ----- the serve daemon ----- *)

let daemon_slots = 40_000

(* Minor words one call of [f] allocates on every domain: a minor
   collection is stop-the-world, so after it [Gc.quick_stat] has sampled
   each running domain, and a joined domain's words are folded in. *)
let all_domain_words f =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).minor_words in
  f ();
  Gc.minor ();
  (Gc.quick_stat ()).minor_words -. w0

(* A whole run pays a fixed set-up (the engine, the registries, the
   domain) and tear-down (the final report and, with telemetry, one
   publication whose snapshots vary by a few hundred words with the
   timings); running N and then 2N slots cancels it, leaving the marginal
   words per slot of both domains together.  A short first run warms
   whatever the process initialises once. *)
let marginal_words_per_slot run =
  let words slots =
    all_domain_words (fun () ->
        let r : Daemon.report = run ~slots in
        Alcotest.(check int) "slots served" slots r.slots;
        Alcotest.(check bool) "conservation" true r.conservation_ok)
  in
  ignore (words 1_000);
  let once = words daemon_slots in
  let twice = words (2 * daemon_slots) in
  (twice -. once) /. float_of_int daemon_slots

let daemon_value_trace =
  lazy
    (Compact.of_workload
       (Scenario.value_uniform_workload ~mmpp ~config:value ~load:2.0 ~seed:11
          ())
       ~slots:(2 * daemon_slots))

(* The benchmark's two daemon configurations at test scale: value MRD on a
   recorded trace, proc LWD on live MMPP sources with periodic flushouts.
   With telemetry on, [stats_every] lies beyond the run, so the loop feeds
   the stage histograms every slot but publishes only once, after the run
   (publication builds immutable snapshots and the window from them, by
   design). *)
let daemon_cases =
  [
    ( "value MRD on a trace",
      fun ~telemetry ~slots ->
        Daemon.run ~telemetry ~stats_every:(4 * daemon_slots) ~slots
          ~model:(Model.Value_uniform value) ~policy:"MRD"
          ~ingest:(Daemon.Trace (Lazy.force daemon_value_trace))
          () );
    ( "proc LWD on a bank",
      fun ~telemetry ~slots ->
        Daemon.run ~telemetry ~stats_every:(4 * daemon_slots) ~slots
          ~flush_every:2_500 ~model:(Model.Proc proc) ~policy:"LWD"
          ~ingest:
            (Daemon.Bank
               (Mmpp_bank.create ~mmpp (Model.Proc proc) ~load:2.0 ~seed:13 ()))
          () );
  ]

let check_daemon ~telemetry () =
  let over =
    List.filter_map
      (fun (name, run) ->
        let w = marginal_words_per_slot (run ~telemetry) in
        if w > budget then Some (Printf.sprintf "%s: %.3f" name w) else None)
      daemon_cases
  in
  Alcotest.(check (list string))
    (Printf.sprintf "daemon runs over %.1f minor words/slot" budget)
    [] over

(* ----- the SPSC ring alone ----- *)

let handoffs = 20_000
let ring_budget = 0.01

(* [handoffs] one-packet batches through a 4-slot ring under [`Block],
   words counted on each domain by its own [Gc.minor_words].  A sleeping
   consumer naps 1 ms every 100 batches, so the producer finds the ring
   full, parks and reports every stall through [on_block]. *)
let ring_words ~sleepy =
  let ring = Spsc_ring.create ~capacity:4 () in
  let fill b = Arrival_batch.push b ~dest:1 ~value:1 in
  let stalls = ref 0 in
  let on_block = Some (fun _ -> incr stalls) in
  let producer () =
    let w0 = Gc.minor_words () in
    for _ = 1 to handoffs do
      match Spsc_ring.produce ring ?on_block ~policy:`Block ~fill () with
      | Spsc_ring.Pushed -> ()
      | Spsc_ring.Shed | Spsc_ring.Aborted -> failwith "hand-off refused"
    done;
    let w = Gc.minor_words () -. w0 in
    Spsc_ring.close ring;
    w
  in
  let received = ref 0 in
  let f b =
    received := !received + Arrival_batch.length b;
    if sleepy && !received mod 100 = 0 then Unix.sleepf 0.001
  in
  let stop () = false in
  let rec drain () =
    match Spsc_ring.consume ring ~stop ~f with
    | Spsc_ring.Consumed -> drain ()
    | Spsc_ring.Drained -> ()
    | Spsc_ring.Stopped -> failwith "stop never fires"
  in
  let d = Domain.spawn producer in
  let w0 = Gc.minor_words () in
  drain ();
  let consumer = Gc.minor_words () -. w0 in
  let producer = Domain.join d in
  Alcotest.(check int) "every packet handed off" handoffs !received;
  (producer, consumer, !stalls)

let check_ring ~sleepy () =
  let producer, consumer, stalls = ring_words ~sleepy in
  if sleepy then
    Alcotest.(check bool) "the producer blocked" true (stalls > 0);
  let per w = w /. float_of_int handoffs in
  Alcotest.(check (list string))
    (Printf.sprintf "domains over %.2f minor words/hand-off" ring_budget)
    []
    (List.filter_map
       (fun (side, w) ->
         if per w > ring_budget then
           Some (Printf.sprintf "%s: %.4f" side (per w))
         else None)
       [ ("producer", producer); ("consumer", consumer) ])

let suite =
  [
    Alcotest.test_case "slot loop allocation-free" `Quick
      (check_all ~traced:false);
    Alcotest.test_case "slot loop allocation-free with a ring" `Quick
      (check_all ~traced:true);
    Alcotest.test_case "daemon allocation-free" `Quick
      (check_daemon ~telemetry:false);
    Alcotest.test_case "daemon allocation-free with telemetry" `Quick
      (check_daemon ~telemetry:true);
    Alcotest.test_case "ring hand-off allocation-free" `Quick
      (check_ring ~sleepy:false);
    Alcotest.test_case "ring hand-off allocation-free when blocked" `Quick
      (check_ring ~sleepy:true);
    Alcotest.test_case "proc switch loop allocation-free at every size" `Quick
      (check_flat flat_proc);
    Alcotest.test_case "value switch loop allocation-free at every size" `Quick
      (check_flat flat_value);
    Alcotest.test_case "proc flushout allocation-free" `Quick check_flush;
    Alcotest.test_case "sweep point within its word budgets" `Quick
      check_point;
    Alcotest.test_case "panel trace within its word budget" `Quick
      check_panel_trace;
  ]
