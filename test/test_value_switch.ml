open Smbm_core

let config ?(ports = 3) ?(max_value = 9) ?(buffer = 4) ?(speedup = 1) () =
  Value_config.make ~ports ~max_value ~buffer ~speedup ()

let test_accept_and_occupancy () =
  let sw = Value_switch.create (config ~buffer:2 ()) in
  Value_switch.accept sw ~dest:0 ~value:5;
  (match Value_switch.accept sw ~dest:0 ~value:99 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "value above k accepted");
  Value_switch.accept sw ~dest:1 ~value:3;
  Alcotest.(check bool) "full" true (Value_switch.is_full sw);
  match Value_switch.accept sw ~dest:2 ~value:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accept on full buffer"

let test_min_value_views () =
  let sw = Value_switch.create (config ~buffer:6 ()) in
  Alcotest.(check int) "empty min" 0 (Value_switch.min_value_or sw ~default:0);
  ignore (Value_switch.accept sw ~dest:0 ~value:5);
  ignore (Value_switch.accept sw ~dest:1 ~value:2);
  ignore (Value_switch.accept sw ~dest:2 ~value:7);
  Alcotest.(check int) "min" 2 (Value_switch.min_value_or sw ~default:0);
  Alcotest.(check int) "min port" 1 (Scan_oracle.min_value_port sw)

let test_min_value_port_tie_breaks_longest () =
  let sw = Value_switch.create (config ~buffer:6 ()) in
  (* Ports 0 and 2 both hold minimum value 1; port 2 is longer. *)
  ignore (Value_switch.accept sw ~dest:0 ~value:1);
  ignore (Value_switch.accept sw ~dest:2 ~value:1);
  ignore (Value_switch.accept sw ~dest:2 ~value:4);
  Alcotest.(check int) "longest min queue" 2 (Scan_oracle.min_value_port sw)

(* Value 63 is bit 0 of the second bitset word: the buffer minimum must be
   read across the word boundary, and back in word 0 for value 62. *)
let test_min_value_second_word () =
  let sw = Value_switch.create (config ~ports:2 ~max_value:64 ~buffer:4 ()) in
  Value_switch.accept sw ~dest:0 ~value:64;
  Value_switch.accept sw ~dest:1 ~value:63;
  Value_switch.accept sw ~dest:1 ~value:64;
  let low () = Value_switch.min_value_or sw ~default:0 in
  Alcotest.(check int) "word 1, bit 0" 63 (low ());
  Value_switch.check_invariants sw;
  Alcotest.(check int) "evicted" 63 (Value_switch.push_out sw ~victim:1);
  Alcotest.(check int) "next level" 64 (low ());
  Value_switch.accept sw ~dest:0 ~value:62;
  Alcotest.(check int) "word 0, bit 62" 62 (low ());
  Value_switch.check_invariants sw;
  ignore (Value_switch.flush sw : int);
  Alcotest.(check int) "empty" 0 (low ());
  Value_switch.check_invariants sw

let test_push_out_takes_min () =
  let sw = Value_switch.create (config ~buffer:4 ()) in
  ignore (Value_switch.accept sw ~dest:0 ~value:5);
  ignore (Value_switch.accept sw ~dest:0 ~value:2);
  ignore (Value_switch.accept sw ~dest:0 ~value:8);
  Alcotest.(check int) "least valuable evicted" 2
    (Value_switch.push_out sw ~victim:0);
  Alcotest.(check int) "occupancy" 2 (Value_switch.occupancy sw)

let test_transmit_phase_max_first () =
  let sw = Value_switch.create (config ~buffer:6 ()) in
  ignore (Value_switch.accept sw ~dest:0 ~value:3);
  ignore (Value_switch.accept sw ~dest:0 ~value:9);
  ignore (Value_switch.accept sw ~dest:1 ~value:4);
  let sent = ref [] in
  let n =
    Value_switch.transmit_phase sw ~on_transmit:(fun ~dest:_ ~value ~arrival:_ ->
        sent := value :: !sent)
  in
  Alcotest.(check int) "one per non-empty queue" 2 n;
  Alcotest.(check (list int)) "each queue sends its max" [ 4; 9 ] !sent

let test_transmit_speedup () =
  let sw = Value_switch.create (config ~buffer:6 ~speedup:2 ()) in
  List.iter (fun v -> ignore (Value_switch.accept sw ~dest:0 ~value:v)) [ 1; 5; 3 ];
  let sent = ref [] in
  ignore
    (Value_switch.transmit_phase sw ~on_transmit:(fun ~dest:_ ~value ~arrival:_ ->
         sent := value :: !sent));
  Alcotest.(check (list int)) "two best, best first" [ 3; 5 ] !sent;
  Alcotest.(check int) "one left" 1 (Value_switch.occupancy sw)

let test_flush_and_invariants () =
  let sw = Value_switch.create (config ~buffer:6 ()) in
  ignore (Value_switch.accept sw ~dest:0 ~value:3);
  ignore (Value_switch.accept sw ~dest:1 ~value:6);
  Value_switch.check_invariants sw;
  Alcotest.(check int) "flushed" 2 (Value_switch.flush sw);
  Value_switch.check_invariants sw

let prop_occupancy_bounded =
  QCheck2.Test.make ~name:"occupancy never exceeds B under greedy driving"
    ~count:200
    QCheck2.Gen.(list (pair (int_range 0 2) (int_range 1 9)))
    (fun arrivals ->
      let sw = Value_switch.create (config ~buffer:3 ()) in
      List.iter
        (fun (dest, value) ->
          if Value_switch.is_full sw then
            ignore
              (Value_switch.push_out sw ~victim:(Scan_oracle.min_value_port sw)
                : int);
          ignore (Value_switch.accept sw ~dest ~value);
          Value_switch.check_invariants sw)
        arrivals;
      Value_switch.occupancy sw <= 3)

(* The buffer-wide histogram against a scan: after every accept, push-out,
   transmission, flush and resize, [min_value_or] is the minimum over ports
   of [queue_min_value_or], and [check_invariants] audits the counts and
   the level bitset against the buckets. *)
let prop_min_value_matches_port_scan =
  QCheck2.Test.make ~name:"min_value_or = minimum of the per-port minima"
    ~count:300
    QCheck2.Gen.(
      let* ports = int_range 1 4 in
      let* k = Qc.value_levels in
      let* buffer = int_range 1 8 in
      let* speedup = int_range 1 2 in
      let* ops =
        list_size (int_range 1 60)
          (frequency
             [
               ( 4,
                 map2
                   (fun d v -> `Accept (d, v))
                   (int_range 0 (ports - 1))
                   (int_range 1 k) );
               (1, map (fun d -> `Push_out d) (int_range 0 (ports - 1)));
               (1, pure `Transmit);
               (1, map (fun b -> `Set_buffer b) (int_range 1 12));
               (1, pure `Flush);
             ])
      in
      pure (ports, k, buffer, speedup, ops))
    (fun (ports, k, buffer, speedup, ops) ->
      let sw =
        Value_switch.create (config ~ports ~max_value:k ~buffer ~speedup ())
      in
      List.for_all
        (fun op ->
          (match op with
          | `Accept (dest, value) ->
            if not (Value_switch.is_full sw) then
              Value_switch.accept sw ~dest ~value
          | `Push_out victim ->
            if Value_switch.queue_length sw victim > 0 then
              ignore (Value_switch.push_out sw ~victim : int)
          | `Transmit ->
            ignore
              (Value_switch.transmit_phase sw
                 ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()))
          | `Set_buffer b ->
            Value_switch.set_buffer sw (max b (Value_switch.occupancy sw))
          | `Flush -> ignore (Value_switch.flush sw : int));
          Value_switch.check_invariants sw;
          let scan = ref max_int in
          for j = 0 to ports - 1 do
            scan :=
              min !scan (Value_switch.queue_min_value_or sw j ~default:max_int)
          done;
          let expected = if !scan = max_int then 0 else !scan in
          Value_switch.min_value_or sw ~default:0 = expected)
        ops)

(* The bit scans against a naive walk: every single-bit word (bit 62 is the
   native int's sign bit, [min_int]) and random multi-bit words, half of
   them with bit 62 forced on. *)
let naive_low w =
  let i = ref 0 in
  while (w lsr !i) land 1 = 0 do
    incr i
  done;
  !i

let naive_high w =
  let i = ref 62 in
  while (w lsr !i) land 1 = 0 do
    decr i
  done;
  !i

let test_bit_index_single_bits () =
  for i = 0 to 62 do
    let w = 1 lsl i in
    Alcotest.(check int) (Printf.sprintf "low bit %d" i) i
      (Value_switch.low_bit_index w);
    Alcotest.(check int) (Printf.sprintf "high bit %d" i) i
      (Value_switch.high_bit_index w)
  done;
  Alcotest.(check int) "min_int is bit 62" 62
    (Value_switch.low_bit_index min_int);
  Alcotest.(check int) "every bit set: low" 0 (Value_switch.low_bit_index (-1));
  Alcotest.(check int) "every bit set: high" 62
    (Value_switch.high_bit_index (-1))

let prop_bit_index_matches_naive =
  QCheck2.Test.make ~name:"low/high bit index = naive scan" ~count:2000
    QCheck2.Gen.(
      let* lo = int_bound ((1 lsl 30) - 1) in
      let* hi = int_bound ((1 lsl 30) - 1) in
      let* top = int_bound 7 in
      let* sign = bool in
      let w = lo lor (hi lsl 30) lor (top lsl 60) in
      let w = if sign then w lor min_int else w in
      (* Half the words are cleared below a random bit that is then set,
         so the lowest set bit lands anywhere in 0..62. *)
      let* sparse = bool in
      let* shift = int_bound 62 in
      pure (if sparse then w land (-1 lsl shift) lor (1 lsl shift) else w))
    (fun w ->
      QCheck2.assume (w <> 0);
      Value_switch.low_bit_index w = naive_low w
      && Value_switch.high_bit_index w = naive_high w)

let suite =
  [
    Alcotest.test_case "accept and occupancy" `Quick test_accept_and_occupancy;
    Alcotest.test_case "min-value views" `Quick test_min_value_views;
    Alcotest.test_case "min port tie-break" `Quick
      test_min_value_port_tie_breaks_longest;
    Alcotest.test_case "min value in the second bitset word" `Quick
      test_min_value_second_word;
    Alcotest.test_case "push_out takes min" `Quick test_push_out_takes_min;
    Alcotest.test_case "transmit max first" `Quick
      test_transmit_phase_max_first;
    Alcotest.test_case "transmit with speedup" `Quick test_transmit_speedup;
    Alcotest.test_case "flush and invariants" `Quick test_flush_and_invariants;
    Qc.to_alcotest prop_occupancy_bounded;
    Qc.to_alcotest prop_min_value_matches_port_scan;
    Alcotest.test_case "bit index of every single-bit word" `Quick
      test_bit_index_single_bits;
    Qc.to_alcotest prop_bit_index_matches_naive;
  ]
