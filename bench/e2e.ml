(* End-to-end throughput of the sweep machinery: slots/sec and GC minor
   words per slot of the batched slot loop and the compact trace cache.

     dune exec bench/e2e.exe -- [--slots N] [--sources S] [--repeats R]
                                [--out FILE]

   Cell families, emitted as JSONL gauges (Smbm_obs.Registry):

   - e2e/point/<model>/{slots_per_sec,minor_words_per_slot}
     One full sweep point (OPT reference plus every policy of the model,
     i.e. exactly what one Fig. 5 simulation runs) over a live workload:
     the slot loop on top of the full simulation, dominated by engine work.

   - e2e/pipeline/<model>/{slots_per_sec,minor_words_per_slot}
     A full 7-point B-axis panel's worth of arrival traffic delivered to
     sink instances (arrival counting only, no switch), the way run_panel
     does it: materialize one compact trace, then replay it through the
     reusable struct-of-arrays batch at every point.  This is the arrival
     pipeline itself — generation, representation, delivery.

   - e2e/traffic/<model>/{us_per_slot,minor_words_per_slot}
     Live generation alone: the base point's 500-source workload stepped
     into one reusable batch.  The source bank allocates nothing per slot,
     so the allocation budget against the committed baseline holds the
     words per slot near one.

   - e2e/flat/<model>/<size>/flat/{slots_per_sec,minor_words_per_slot}
     sizes n4, n64, n256, n1024
     e2e/flat/proc/target_slots_per_sec  (the 10M hot-cell target)
     The raw switch slot loop — occupancy-conserving fuzzed arrivals,
     transmission, slot advance — on the struct-of-arrays switch, across a
     size panel from the paper's contiguous 4-port switch (the hot cell,
     where the switch must clear the recorded 10M slots/s target) up to
     1024 unit-work ports.  Nothing sits between the loop and the switch —
     no workload generation, no metrics, no policy admission (priced by
     the point cells) — so this is the representation cost itself.  CI
     gates the near-zero minor words/slot against the committed baseline.

   - e2e/flight/proc/{off,on}/{slots_per_sec,minor_words_per_slot}
     e2e/flight/proc/overhead
     The flat proc hot cell again, with the engine's per-event flight
     recording (Smbm_obs.Flight) inlined at the same sites — arrival,
     transmit, slot end.  The loop underneath runs at ~10M slots/s, so
     any per-event recording cost shows up undiluted: this is the worst
     case for the always-on black box.  `overhead` is the median of the
     on/off rate ratios of interleaved off/on pairs, so host drift between
     the two arms cancels within each pair (closer to 1.0 is cheaper); CI
     gates it with an absolute floor of 0.8 — the always-on ring must keep
     at least 80% of tracing-off throughput.

   The committed repo-root BENCH_e2e.json is this file at the default
   scale; CI regenerates it at the same scale and gates with
   `smbm_cli bench-diff` on the minor_words_per_slot budgets (allocation
   counts are deterministic and machine-transferable, unlike raw rates)
   and the flight overhead floor. *)

open Smbm_sim

let slots = ref 4_000
let sources = ref 50
let repeats = ref 3
let flat_scale = ref 1.0
let out = ref "BENCH_e2e.json"

let () =
  Arg.parse
    [
      ("--slots", Arg.Set_int slots, "N  slots per timed run");
      ("--sources", Arg.Set_int sources, "S  MMPP sources feeding the point");
      ( "--repeats",
        Arg.Set_int repeats,
        "R  timed runs per cell (the best rate is kept)" );
      ( "--flat-scale",
        Arg.Set_float flat_scale,
        "X  multiplier on the switch-loop cells' slot counts" );
      ("--out", Arg.Set_string out, "FILE  JSONL output path");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e [--slots N] [--sources S] [--repeats R] [--flat-scale X] [--out FILE]"

let base () =
  {
    Sweep.default_base with
    slots = !slots;
    flush_every = Some (max 1 (!slots / 20));
    mmpp =
      { Smbm_traffic.Scenario.default_mmpp with sources = !sources };
  }

let models =
  [
    ("proc", Sweep.Proc);
    ("value_uniform", Sweep.Value_uniform);
    ("value_port", Sweep.Value_port);
  ]

(* Best-of-[repeats] rate (filters GC pauses and scheduler noise) and the
   last minor-word count (allocation is deterministic, the last stands).
   [run] returns how many slots it stepped.  The untimed warmup run sits
   after a full compaction so every cell starts from the same heap shape
   regardless of which cells ran before it. *)
let measure run =
  Gc.compact ();
  ignore (run ());
  let best_rate = ref 0.0 and words_per_slot = ref 0.0 in
  for _ = 1 to !repeats do
    Gc.full_major ();
    let words0 = Gc.minor_words () in
    let n, span = Smbm_obs.Span.timed "run" (fun () -> run ()) in
    let words = Gc.minor_words () -. words0 in
    let n = float_of_int n in
    let rate = n /. span.Smbm_obs.Span.wall in
    if rate > !best_rate then best_rate := rate;
    words_per_slot := words /. n
  done;
  (!best_rate, !words_per_slot)

(* ----- point cells: one full sweep point, real engines ----- *)

let params (base : Sweep.base) =
  {
    Experiment.slots = base.slots;
    flush_every = base.flush_every;
    check_every = None;
  }

let point_cell ~model =
  let base = base () in
  measure (fun () ->
      (* Fresh workload + instances every run: the RNG streams are consumed
         by the run. *)
      let workload, instances = Sweep.setup model base in
      Experiment.run ~params:(params base) ~workload instances;
      base.Sweep.slots)

(* ----- pipeline cells: a full B panel of traffic into sinks ----- *)

(* A sink accepts arrivals (counting them, so delivery is not dead code)
   and does nothing else: what remains is exactly the arrival pipeline. *)
let sink name =
  let count = ref 0 in
  {
    Instance.name;
    arrive_dv = (fun ~dest:_ ~value:_ -> incr count);
    arrive_batch = None;
    transmit = ignore;
    end_slot = ignore;
    flush = ignore;
    occupancy = (fun () -> 0);
    metrics = Metrics.create ();
    ports = None;
    check = ignore;
  }

let b_axis_xs = [ 16; 32; 64; 128; 256; 512; 1024 ]

let pipeline_cell ~model =
  let base = base () in
  let n_instances = List.length (Sweep.policy_names model base) + 1 in
  let sinks () = List.init n_instances (fun i -> sink (string_of_int i)) in
  measure (fun () ->
      let trace =
        Sweep.materialize_trace ~base ~model ~axis:Sweep.B
          ~x:(List.hd b_axis_xs)
      in
      List.iter
        (fun _x ->
          let workload = Smbm_traffic.Trace.Compact.replay trace in
          Experiment.run ~params:(params base) ~workload (sinks ()))
        b_axis_xs;
      List.length b_axis_xs * base.Sweep.slots)

(* ----- traffic cells: live generation alone ----- *)

(* The base point's workload (500 sources, k = 16, load 2.0) stepped into
   one reusable batch: the source bank's per-slot cost and allocation with
   nothing downstream.  One workload serves every run; its stream simply
   continues. *)
let traffic_cell ~model =
  let base = { Sweep.default_base with slots = !slots } in
  let workload, _ = Sweep.setup model base in
  let batch = Smbm_core.Arrival_batch.create () in
  measure (fun () ->
      for _ = 1 to base.Sweep.slots do
        Smbm_traffic.Workload.next_into workload batch
      done;
      base.Sweep.slots)

(* ----- flat cells: the raw switch slot loop across a size panel ----- *)

(* Deterministic private arrival stream, so every repeat times the same
   work. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

(* (row label, ports, buffer, timed slots).  The n4 row is the hot cell;
   the scale rows grow the working set past cache. *)
let flat_sizes =
  [
    ("n4", 4, 64, 600_000);
    ("n64", 64, 16_384, 20_000);
    ("n256", 256, 65_536, 6_000);
    ("n1024", 1024, 262_144, 1_000);
  ]

let flat_row_slots slots =
  max 1 (int_of_float (float_of_int slots *. !flat_scale))

(* One switch per cell, filled once; the timed loop re-accepts exactly
   what each slot transmitted, so occupancy is conserved and every repeat
   times the same steady-state churn (fill and flush stay outside). *)
let flat_proc_cell ~n ~buffer ~slots =
  (* The hot cell runs the paper's contiguous configuration (works 1..4);
     the scale rows run unit works — the classical shared-memory switch —
     so every port completes a packet every slot, maximizing churn. *)
  let config =
    if n <= 4 then Smbm_core.Proc_config.contiguous ~k:n ~buffer ()
    else Smbm_core.Proc_config.uniform ~n ~work:1 ~buffer ()
  in
  let sw = Smbm_core.Proc_switch.create config in
  let next = lcg 0x5eed in
  let d = ref 0 in
  while not (Smbm_core.Proc_switch.is_full sw) do
    Smbm_core.Proc_switch.accept sw ~dest:(!d mod n) ~value:1;
    incr d
  done;
  measure (fun () ->
      for _ = 1 to slots do
        let freed =
          Smbm_core.Proc_switch.transmit_phase sw
            ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ())
        in
        Smbm_core.Proc_switch.advance_slot sw;
        for _ = 1 to freed do
          Smbm_core.Proc_switch.accept sw ~dest:(next n) ~value:1
        done
      done;
      slots)

let flat_value_cell ~n ~buffer ~slots =
  let k = 16 in
  let config =
    Smbm_core.Value_config.make ~ports:n ~max_value:k ~buffer ()
  in
  let sw = Smbm_core.Value_switch.create config in
  let next = lcg 0x5eed in
  let d = ref 0 in
  while not (Smbm_core.Value_switch.is_full sw) do
    Smbm_core.Value_switch.accept sw ~dest:(!d mod n)
      ~value:(next k + 1);
    incr d
  done;
  measure (fun () ->
      for _ = 1 to slots do
        let freed =
          Smbm_core.Value_switch.transmit_phase sw
            ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ())
        in
        Smbm_core.Value_switch.advance_slot sw;
        for _ = 1 to freed do
          Smbm_core.Value_switch.accept sw ~dest:(next n)
            ~value:(next k + 1)
        done
      done;
      slots)

(* ----- flight cells: the always-on black box priced on the hot loop ----- *)

(* The proc hot cell's loop with the engine's flight-recording seam:
   per-packet transmit and arrival events plus a slot_end, guarded by the
   same option match the engines compile.  [flight = None] is the
   tracing-off arm; [Some ring] is always-on recording into a wrapped
   ring.  Returns the run: [slots] slots on a switch filled once. *)
let flight_run ~flight =
  let n = 4 and buffer = 64 in
  let slots = flat_row_slots 600_000 in
  let config = Smbm_core.Proc_config.contiguous ~k:n ~buffer () in
  let sw = Smbm_core.Proc_switch.create config in
  let fsrc =
    match flight with Some f -> Smbm_obs.Flight.intern f "hot" | None -> 0
  in
  let next = lcg 0x5eed in
  let d = ref 0 in
  while not (Smbm_core.Proc_switch.is_full sw) do
    Smbm_core.Proc_switch.accept sw ~dest:(!d mod n) ~value:1;
    incr d
  done;
  (* The engines' own slot clock: advanced beside [advance_slot], it
     stamps events and latencies without a call into the switch.  The hook
     is built once, as the engines build theirs: a hook closing over the
     slot's [now] would be a fresh closure every slot, and the cell would
     price that allocation instead of the ring. *)
  let clock = ref (Smbm_core.Proc_switch.now sw) in
  let on_transmit ~dest ~value ~arrival =
    match flight with
    | None -> ()
    | Some f ->
      let now = !clock in
      Smbm_obs.Flight.transmit f ~slot:now ~src:fsrc ~dest ~value
        ~latency:(now - arrival)
  in
  fun () ->
    for _ = 1 to slots do
      let now = !clock in
      let freed = Smbm_core.Proc_switch.transmit_phase sw ~on_transmit in
      Smbm_core.Proc_switch.advance_slot sw;
      incr clock;
      for _ = 1 to freed do
        let dest = next n in
        (match flight with
        | None -> ()
        | Some f -> Smbm_obs.Flight.arrival f ~slot:now ~src:fsrc ~dest);
        Smbm_core.Proc_switch.accept sw ~dest ~value:1
      done;
      match flight with
      | None -> ()
      | Some f ->
        Smbm_obs.Flight.slot_end f ~slot:now ~src:fsrc
          ~occupancy:(Smbm_core.Proc_switch.occupancy sw)
    done;
    slots

(* The two arms timed in interleaved pairs, alternating which runs first:
   each arm reports its best rate and last words per slot, as [measure]
   does, and the overhead is the median of the per-pair on/off ratios —
   a slow stretch of the host then shifts both halves of a pair instead
   of deciding the ratio.  [2 * repeats + 1] pairs, so the median is one
   pair's ratio. *)
let measure_pairs ~off ~on =
  Gc.compact ();
  ignore (off ());
  ignore (on ());
  let timed run =
    Gc.full_major ();
    let words0 = Gc.minor_words () in
    let n, span = Smbm_obs.Span.timed "run" (fun () -> run ()) in
    let n = float_of_int n in
    (n /. span.Smbm_obs.Span.wall, (Gc.minor_words () -. words0) /. n)
  in
  let pairs = (2 * !repeats) + 1 in
  let ratios = Array.make pairs 0.0 in
  let off_best = ref (0.0, 0.0) and on_best = ref (0.0, 0.0) in
  let keep best (rate, words) = best := (Float.max (fst !best) rate, words) in
  for p = 0 to pairs - 1 do
    let off_r, on_r =
      if p mod 2 = 0 then
        let a = timed off in
        (a, timed on)
      else
        let b = timed on in
        (timed off, b)
    in
    keep off_best off_r;
    keep on_best on_r;
    ratios.(p) <- fst on_r /. fst off_r
  done;
  Array.sort Float.compare ratios;
  (!off_best, !on_best, ratios.(pairs / 2))

let () =
  let reg = Smbm_obs.Registry.create () in
  let gauge name v = Smbm_obs.Registry.set (Smbm_obs.Registry.gauge reg name) v in
  let family label cell =
    List.iter
      (fun (name, model) ->
        let rate, words = cell ~model in
        let prefix = "e2e/" ^ label ^ "/" ^ name in
        gauge (prefix ^ "/slots_per_sec") rate;
        gauge (prefix ^ "/minor_words_per_slot") words;
        Printf.printf "%-28s %8.0f slots/s %8.1f w/slot\n%!"
          (label ^ "/" ^ name) rate words)
      models
  in
  family "point" point_cell;
  family "pipeline" pipeline_cell;
  List.iter
    (fun (name, model) ->
      let rate, words = traffic_cell ~model in
      let prefix = "e2e/traffic/" ^ name in
      gauge (prefix ^ "/us_per_slot") (1e6 /. rate);
      gauge (prefix ^ "/minor_words_per_slot") words;
      Printf.printf "%-28s %8.2f us/slot %8.2f w/slot\n%!" ("traffic/" ^ name)
        (1e6 /. rate) words)
    models;
  List.iter
    (fun (name, cell) ->
      List.iter
        (fun (size, n, buffer, slots) ->
          let slots = flat_row_slots slots in
          let rate, words = cell ~n ~buffer ~slots in
          let prefix = "e2e/flat/" ^ name ^ "/" ^ size in
          gauge (prefix ^ "/flat/slots_per_sec") rate;
          gauge (prefix ^ "/flat/minor_words_per_slot") words;
          Printf.printf "%-28s %8.0f slots/s %8.2f w/slot\n%!"
            ("flat/" ^ name ^ "/" ^ size)
            rate words)
        flat_sizes)
    [ ("proc", flat_proc_cell); ("value", flat_value_cell) ];
  gauge "e2e/flat/proc/target_slots_per_sec" 10_000_000.0;
  (let ring = Smbm_obs.Flight.create ~cap:65536 () in
   let (off_rate, off_words), (on_rate, on_words), overhead =
     measure_pairs ~off:(flight_run ~flight:None)
       ~on:(flight_run ~flight:(Some ring))
   in
   gauge "e2e/flight/proc/off/slots_per_sec" off_rate;
   gauge "e2e/flight/proc/on/slots_per_sec" on_rate;
   gauge "e2e/flight/proc/off/minor_words_per_slot" off_words;
   gauge "e2e/flight/proc/on/minor_words_per_slot" on_words;
   gauge "e2e/flight/proc/overhead" overhead;
   Printf.printf
     "%-28s off %8.0f slots/s %8.2f w/slot   on %8.0f slots/s %8.2f w/slot   \
      overhead %.2fx (%d events)\n\
      %!"
     "flight/proc" off_rate off_words on_rate on_words overhead
     (Smbm_obs.Flight.total ring));
  let oc = open_out !out in
  List.iter
    (fun line -> output_string oc (line ^ "\n"))
    (Smbm_obs.Registry.to_jsonl
       ~labels:
         [
           ("slots", string_of_int !slots); ("sources", string_of_int !sources);
         ]
       reg);
  close_out oc;
  Printf.printf "wrote %s\n" !out
