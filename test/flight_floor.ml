(* The flight recorder's observer-cost floor: recording every event on the
   proc switch's hot loop must keep at least 0.8x of the tracing-off slot
   rate.

     dune exec test/flight_floor.exe

   The loop is the raw 4-port contiguous proc switch (works 1..4): a buffer
   filled once, then every slot transmits and re-accepts exactly what it
   freed.  Nothing sits between the loop and the switch, so it runs at
   millions of slots per second and any per-event recording cost shows up
   undiluted: this is the worst case for the always-on black box.  The
   tracing-on arm records the engines' events at the engines' sites —
   arrival, transmit, slot end — behind the same option match, into a
   wrapping ring.

   The two arms run as interleaved off/on pairs, alternating which runs
   first, so a slow stretch of the host shifts both halves of a pair
   instead of deciding the ratio.  Runs are short, to keep a pair's halves
   close in time, and timed in process CPU time, so time the host gives to
   other processes is charged to neither arm.  The gate is the median of
   the per-pair on/off rate ratios; the quartiles show how far the pairs
   spread, and the recorder's absolute cost is the on-run's extra time over
   the off-run's, per recorded event.  Exits 1 when the median is below the
   floor.

   A timing ratio, so not part of [dune runtest]; allocation on this loop
   is gated there (test_alloc's "with a ring" cases). *)

open Smbm_core
module Flight = Smbm_obs.Flight

let floor = 0.8
let pairs = 15
let slots = 200_000
let n = 4

(* Deterministic private arrival stream, so every run times the same
   work. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

(* One arm: [flight = None] is tracing off, [Some ring] always-on recording.
   Returns one run of [slots] slots on a switch filled once. *)
let arm ~flight =
  let sw = Proc_switch.create (Proc_config.contiguous ~k:n ~buffer:64 ()) in
  let src = match flight with Some f -> Flight.intern f "hot" | None -> 0 in
  let next = lcg 0x5eed in
  let d = ref 0 in
  while not (Proc_switch.is_full sw) do
    Proc_switch.accept sw ~dest:(!d mod n) ~value:1;
    incr d
  done;
  (* The engines' own slot clock: advanced beside [advance_slot], it
     stamps events and latencies without a call into the switch.  The hook
     is built once, as the engines build theirs: a hook closing over the
     slot's [now] would be a fresh closure every slot, and the loop would
     price that allocation instead of the ring. *)
  let clock = ref (Proc_switch.now sw) in
  let on_transmit ~dest ~value ~arrival =
    match flight with
    | None -> ()
    | Some f ->
      let now = !clock in
      Flight.transmit f ~slot:now ~src ~dest ~value ~latency:(now - arrival)
  in
  fun () ->
    for _ = 1 to slots do
      let now = !clock in
      let freed = Proc_switch.transmit_phase sw ~on_transmit in
      Proc_switch.advance_slot sw;
      incr clock;
      for _ = 1 to freed do
        let dest = next n in
        (match flight with
        | None -> ()
        | Some f -> Flight.arrival f ~slot:now ~src ~dest);
        Proc_switch.accept sw ~dest ~value:1
      done;
      match flight with
      | None -> ()
      | Some f ->
        Flight.slot_end f ~slot:now ~src ~occupancy:(Proc_switch.occupancy sw)
    done

let cpu_time run =
  Gc.full_major ();
  let t0 = Sys.time () in
  run ();
  Sys.time () -. t0

(* The [q]-quantile of a sample, interpolated between ranks. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let h = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float h in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let () =
  let ring = Flight.create ~cap:65536 () in
  let off = arm ~flight:None and on = arm ~flight:(Some ring) in
  Gc.compact ();
  off ();
  on ();
  let ratio = Array.make pairs 0.0 and ns_per_event = Array.make pairs 0.0 in
  let best_off = ref infinity and best_on = ref infinity in
  for p = 0 to pairs - 1 do
    let events0 = Flight.total ring in
    let t_off, t_on =
      if p mod 2 = 0 then
        let t_off = cpu_time off in
        (t_off, cpu_time on)
      else
        let t_on = cpu_time on in
        (cpu_time off, t_on)
    in
    let events = Flight.total ring - events0 in
    best_off := Float.min !best_off t_off;
    best_on := Float.min !best_on t_on;
    ratio.(p) <- t_off /. t_on;
    ns_per_event.(p) <- (t_on -. t_off) /. float_of_int events *. 1e9
  done;
  let rate t = float_of_int slots /. t /. 1e6 in
  let median = quantile ratio 0.5 in
  Printf.printf
    "flight floor: %d interleaved off/on pairs of %d slots, %d-port proc \
     switch\n"
    pairs slots n;
  Printf.printf "best rate       off %.2f M slots/s   on %.2f M slots/s\n"
    (rate !best_off) (rate !best_on);
  Printf.printf "on/off ratio    q1 %.3f  median %.3f  q3 %.3f   (floor %.2f)\n"
    (quantile ratio 0.25) median (quantile ratio 0.75) floor;
  Printf.printf "recorder cost   q1 %.2f  median %.2f  q3 %.2f ns/event\n"
    (quantile ns_per_event 0.25)
    (quantile ns_per_event 0.5)
    (quantile ns_per_event 0.75);
  if median < floor then begin
    Printf.printf "FAIL: median on/off ratio %.3f below the %.2f floor\n" median
      floor;
    exit 1
  end
  else print_endline "ok"
