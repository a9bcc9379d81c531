(* Direct coverage of the switches' struct-of-arrays state and its
   building blocks: Int_ring unit tests, slab growth under [set_buffer],
   engine-level metric identity between the production policies and their
   scan references — and the resize safety property: interleaving
   [set_buffer] grow/shrink with accepts, push-outs and transmissions never
   drops a buffered packet and keeps every cached aggregate in sync, on
   both switches. *)

open Smbm_prelude
open Smbm_core

(* --- Int_ring --- *)

let test_int_ring_basics () =
  let r = Int_ring.create ~capacity:2 () in
  Alcotest.(check bool) "empty" true (Int_ring.is_empty r);
  for i = 0 to 9 do
    Int_ring.push_back r i
  done;
  Alcotest.(check int) "length" 10 (Int_ring.length r);
  Alcotest.(check int) "front" 0 (Int_ring.peek_front r);
  Alcotest.(check int) "get mid" 7 (Int_ring.get r 7);
  let seen = ref [] in
  Int_ring.iter (fun x -> seen := x :: !seen) r;
  Alcotest.(check (list int)) "iter order" (List.init 10 Fun.id)
    (List.rev !seen);
  Alcotest.(check int) "pop_front" 0 (Int_ring.pop_front r);
  Alcotest.(check int) "pop_back" 9 (Int_ring.pop_back r);
  Alcotest.(check int) "length after pops" 8 (Int_ring.length r);
  Int_ring.clear r;
  Alcotest.(check bool) "cleared" true (Int_ring.is_empty r)

let test_int_ring_wrap_and_grow () =
  (* Force the head away from zero, then grow across the wrap point: the
     re-linearization must preserve FIFO order. *)
  let r = Int_ring.create ~capacity:4 () in
  for i = 0 to 3 do
    Int_ring.push_back r i
  done;
  Alcotest.(check int) "a" 0 (Int_ring.pop_front r);
  Alcotest.(check int) "b" 1 (Int_ring.pop_front r);
  (* Head is now at index 2; pushing five more wraps and forces growth. *)
  for i = 4 to 8 do
    Int_ring.push_back r i
  done;
  let out = ref [] in
  while not (Int_ring.is_empty r) do
    out := Int_ring.pop_front r :: !out
  done;
  Alcotest.(check (list int)) "fifo across grow" [ 2; 3; 4; 5; 6; 7; 8 ]
    (List.rev !out)

let prop_int_ring_oracle =
  (* Differential against a plain list queue. *)
  QCheck2.Test.make ~name:"Int_ring = list-queue oracle" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (frequency
           [
             (4, map (fun x -> `Push x) (int_range 0 1000));
             (2, pure `Pop_front);
             (1, pure `Pop_back);
             (1, pure `Clear);
           ]))
    (fun ops ->
      let r = Int_ring.create ~capacity:1 () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | `Push x ->
            Int_ring.push_back r x;
            model := !model @ [ x ];
            true
          | `Pop_front -> (
            match !model with
            | [] -> Int_ring.is_empty r
            | x :: rest ->
              model := rest;
              Int_ring.pop_front r = x)
          | `Pop_back -> (
            match List.rev !model with
            | [] -> Int_ring.is_empty r
            | x :: rest ->
              model := List.rev rest;
              Int_ring.pop_back r = x)
          | `Clear ->
            Int_ring.clear r;
            model := [];
            Int_ring.is_empty r)
        ops
      && Int_ring.length r = List.length !model)

(* --- slab growth --- *)

let test_proc_flat_slab_growth () =
  let config = Proc_config.make ~works:[| 2; 3 |] ~buffer:2 () in
  let sw = Proc_switch.create config in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:1 ~value:1;
  Alcotest.(check bool) "full at 2" true (Proc_switch.is_full sw);
  (* Growing the buffer extends the slab; existing slots stay put. *)
  Proc_switch.set_buffer sw 64;
  Proc_switch.check_invariants sw;
  Alcotest.(check int) "occupancy kept" 2 (Proc_switch.occupancy sw);
  Alcotest.(check int) "work kept" 5 (Proc_switch.total_occupied_work sw);
  for _ = 1 to 31 do
    Proc_switch.accept sw ~dest:0 ~value:1;
    Proc_switch.accept sw ~dest:1 ~value:1
  done;
  Proc_switch.check_invariants sw;
  Alcotest.(check int) "filled to 64" 64 (Proc_switch.occupancy sw);
  (* Shrinking below occupancy is refused — never drops a packet. *)
  Alcotest.check_raises "shrink below occupancy"
    (Invalid_argument
       "Proc_switch.set_buffer: new buffer smaller than current occupancy")
    (fun () -> Proc_switch.set_buffer sw 63);
  Alcotest.(check int) "occupancy after refusal" 64 (Proc_switch.occupancy sw);
  Alcotest.(check int) "flush" 64 (Proc_switch.flush sw);
  (* After a flush the buffer may shrink to any positive size. *)
  Proc_switch.set_buffer sw 1;
  Proc_switch.check_invariants sw

let test_value_flat_slab_growth () =
  let config = Value_config.make ~ports:2 ~max_value:130 ~buffer:2 () in
  let sw = Value_switch.create config in
  Value_switch.accept sw ~dest:0 ~value:130;
  Value_switch.accept sw ~dest:1 ~value:1;
  Value_switch.set_buffer sw 40;
  Value_switch.check_invariants sw;
  Alcotest.(check int) "min kept" 1 (Value_switch.min_value_or sw ~default:0);
  for i = 1 to 38 do
    Value_switch.accept sw ~dest:(i mod 2) ~value:((i * 7 mod 130) + 1)
  done;
  Value_switch.check_invariants sw;
  Alcotest.(check int) "filled to 40" 40 (Value_switch.occupancy sw);
  Alcotest.check_raises "shrink below occupancy"
    (Invalid_argument
       "Value_switch.set_buffer: new buffer smaller than current occupancy")
    (fun () -> Value_switch.set_buffer sw 39);
  Alcotest.(check int) "flush" 40 (Value_switch.flush sw)

(* --- engine-level metric identity, production index vs scan reference --- *)

let check_metrics_equal name a b =
  let open Smbm_sim in
  List.iter
    (fun (what, f) ->
      Alcotest.(check int) (name ^ " " ^ what) (f a) (f b))
    [
      ("arrivals", Metrics.arrivals);
      ("accepted", Metrics.accepted);
      ("dropped", Metrics.dropped);
      ("pushed_out", Metrics.pushed_out);
      ("transmitted", Metrics.transmitted);
      ("transmitted_value", Metrics.transmitted_value);
      ("flushed", Metrics.flushed);
      ("in_buffer", Metrics.in_buffer);
    ];
  Alcotest.(check (float 0.0))
    (name ^ " latency mean")
    (Running_stats.mean (Metrics.latency_stats a))
    (Running_stats.mean (Metrics.latency_stats b))

let drive_instance (inst : Smbm_sim.Instance.t) ~slots ~per_slot ~dv =
  for slot = 0 to slots - 1 do
    for j = 0 to per_slot - 1 do
      let dest, value = dv slot j in
      inst.arrive_dv ~dest ~value
    done;
    inst.transmit ();
    inst.end_slot ()
  done;
  inst.flush ();
  inst.check ()

let test_proc_engine_metric_identity () =
  let config = Proc_config.make ~works:[| 2; 3; 1; 4 |] ~buffer:8 () in
  let run policy =
    let inst = Smbm_sim.Engine.Proc.instance config policy in
    drive_instance inst ~slots:200 ~per_slot:3 ~dv:(fun slot j ->
        ((((slot * 7) mod 11) + j) mod 4, 1));
    inst.metrics
  in
  check_metrics_equal "P_lwd" (run (P_lwd.make config))
    (run (Scan_oracle.lwd_policy ()))

let test_value_engine_metric_identity () =
  let config = Value_config.make ~ports:4 ~max_value:16 ~buffer:8 () in
  let run policy =
    let inst = Smbm_sim.Engine.Value.instance config policy in
    drive_instance inst ~slots:200 ~per_slot:3 ~dv:(fun slot j ->
        (((slot * 7) + j) mod 4, (((slot * 13) + (j * 5)) mod 16) + 1));
    inst.metrics
  in
  check_metrics_equal "V_mrd" (run (V_mrd.make config))
    (run (Scan_oracle.mrd_policy ~protect_last:false ()))

(* --- resize never drops a packet, aggregates stay in sync --- *)

(* The switch-agnostic loop: apply fuzzed accept / push-out / transmit /
   resize ops while maintaining a reference count of what must still be
   buffered, and cross-check every cached aggregate after each step.  The
   resize op picks its target relative to the live occupancy so both the
   grow and the legal-shrink paths are exercised; the contract that an
   illegal shrink is refused is checked every time one would apply. *)
let run_resize_ops ~occupancy ~buffer ~set_buffer ~accept ~push_out ~transmit
    ~flush ~check ~shrink_refused ops =
  let expected = ref 0 in
  List.for_all
    (fun op ->
      (match op with
      | `Accept d ->
        if occupancy () < buffer () then begin
          accept d;
          incr expected
        end
      | `Push_out ->
        if occupancy () > 0 then begin
          push_out ();
          decr expected
        end
      | `Transmit -> expected := !expected - transmit ()
      | `Resize b ->
        let occ = occupancy () in
        if b < occ then begin
          (* The illegal shrink must be refused with the buffer intact... *)
          if not (shrink_refused b) then raise Exit;
          (* ...then the clamped resize must apply. *)
          set_buffer (max 1 occ)
        end
        else set_buffer (max 1 b)
      | `Flush ->
        let n = flush () in
        if n <> !expected then raise Exit;
        expected := 0);
      check ();
      occupancy () = !expected && occupancy () <= buffer ())
    ops

let resize_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 30 120)
      (frequency
         [
           (5, map (fun d -> `Accept d) (int_range 0 2));
           (2, pure `Push_out);
           (2, pure `Transmit);
           (2, map (fun b -> `Resize b) (int_range 1 16));
           (1, pure `Flush);
         ]))

let prop_proc_resize_never_drops =
  QCheck2.Test.make
    ~name:"proc set_buffer never drops a packet" ~count:200
    resize_ops_gen
    (fun ops ->
      let config = Proc_config.make ~works:[| 2; 1; 3 |] ~buffer:4 () in
      let sw = Proc_switch.create config in
      let sum_ports f =
        let acc = ref 0 in
        for j = 0 to Proc_switch.n sw - 1 do
          acc := !acc + f sw j
        done;
        !acc
      in
      run_resize_ops ops
        ~occupancy:(fun () -> Proc_switch.occupancy sw)
        ~buffer:(fun () -> Proc_switch.buffer sw)
        ~set_buffer:(Proc_switch.set_buffer sw)
        ~accept:(fun d -> Proc_switch.accept sw ~dest:d ~value:1)
        ~push_out:(fun () ->
          (* Evict from the longest queue, like a policy would. *)
          let victim = ref 0 in
          for j = 1 to Proc_switch.n sw - 1 do
            if
              Proc_switch.queue_length sw j
              > Proc_switch.queue_length sw !victim
            then victim := j
          done;
          ignore (Proc_switch.push_out sw ~victim:!victim : int))
        ~transmit:(fun () ->
          let sent =
            Proc_switch.transmit_phase sw
              ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ())
          in
          Proc_switch.advance_slot sw;
          sent)
        ~flush:(fun () -> Proc_switch.flush sw)
        ~shrink_refused:(fun b ->
          match Proc_switch.set_buffer sw b with
          | () -> false
          | exception Invalid_argument _ -> true)
        ~check:(fun () ->
          Proc_switch.check_invariants sw;
          (* Aggregates stay in sync with the queues across resizes. *)
          if sum_ports Proc_switch.queue_length <> Proc_switch.occupancy sw
          then raise Exit;
          if
            sum_ports Proc_switch.queue_work
            <> Proc_switch.total_occupied_work sw
          then raise Exit))

let prop_value_resize_never_drops =
  QCheck2.Test.make
    ~name:"value set_buffer never drops a packet" ~count:200
    resize_ops_gen
    (fun ops ->
      let config = Value_config.make ~ports:3 ~max_value:7 ~buffer:4 () in
      let sw = Value_switch.create config in
      let sum_ports f =
        let acc = ref 0 in
        for j = 0 to Value_switch.n sw - 1 do
          acc := !acc + f sw j
        done;
        !acc
      in
      let step = ref 0 in
      run_resize_ops ops
        ~occupancy:(fun () -> Value_switch.occupancy sw)
        ~buffer:(fun () -> Value_switch.buffer sw)
        ~set_buffer:(Value_switch.set_buffer sw)
        ~accept:(fun d ->
          incr step;
          Value_switch.accept sw ~dest:d
            ~value:((!step * 5 mod 7) + 1))
        ~push_out:(fun () ->
          let victim = Scan_oracle.min_value_port sw in
          if victim >= 0 then ignore (Value_switch.push_out sw ~victim : int))
        ~transmit:(fun () ->
          let sent =
            Value_switch.transmit_phase sw
              ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ())
          in
          Value_switch.advance_slot sw;
          sent)
        ~flush:(fun () -> Value_switch.flush sw)
        ~shrink_refused:(fun b ->
          match Value_switch.set_buffer sw b with
          | () -> false
          | exception Invalid_argument _ -> true)
        ~check:(fun () ->
          Value_switch.check_invariants sw;
          if
            sum_ports Value_switch.queue_length
            <> Value_switch.occupancy sw
          then raise Exit;
          let m = Value_switch.min_value_or sw ~default:0 in
          if m = 0 then (if Value_switch.occupancy sw <> 0 then raise Exit)
          else
            let j = Scan_oracle.min_value_port sw in
            if j < 0 || Value_switch.queue_min_value_or sw j ~default:0 <> m
            then raise Exit))

let suite =
  [
    Alcotest.test_case "Int_ring basics" `Quick test_int_ring_basics;
    Alcotest.test_case "Int_ring wrap and grow" `Quick
      test_int_ring_wrap_and_grow;
    Qc.to_alcotest prop_int_ring_oracle;
    Alcotest.test_case "proc flat slab growth" `Quick
      test_proc_flat_slab_growth;
    Alcotest.test_case "value flat slab growth" `Quick
      test_value_flat_slab_growth;
    Alcotest.test_case "proc engine metrics: scan = index" `Quick
      test_proc_engine_metric_identity;
    Alcotest.test_case "value engine metrics: scan = index" `Quick
      test_value_engine_metric_identity;
    Qc.to_alcotest prop_proc_resize_never_drops;
    Qc.to_alcotest prop_value_resize_never_drops;
  ]
