(* Direct lockstep test of the victim-index tournament tree against a
   brute-force argmax with the documented comparators.

   The index reads three caller-owned key columns built over a "live"
   state of three int columns: column 0 is a derived key (copied by the
   index's [refresh] callback), column 1 aliases the live column itself
   (like a switch's queue-length aggregate), and column 2 is derived again
   (the ratio order's tie key).  Random batches of live writes, each
   followed by an [invalidate], and bare [invalidate]s run between reads;
   every read — [top], and [top_excluding j] for every [j] — must equal the
   scan over the live state.  Batches repeat elements and range from a few
   marks (the per-path climbs) to 3n (the full-rebuild branch). *)

open Smbm_core

type shape = Lex | Ratio

type model = {
  shape : shape;
  largest : bool;
  n : int;
  live : int array array;  (* 3 columns of n *)
  idx : Agg_index.t;
}

let make_model shape ~largest ~init =
  let n = Array.length init.(0) in
  let live = Array.map Array.copy init in
  let k0 = Array.make n 0 and k2 = Array.make n 0 in
  let refresh j =
    k0.(j) <- live.(0).(j);
    k2.(j) <- live.(2).(j)
  in
  let tie = if largest then `Largest_index else `Smallest_index in
  let idx =
    match shape with
    | Lex -> Agg_index.create_lex ~n ~tie ~k1:k0 ~k2:live.(1) ~refresh ()
    | Ratio ->
      Agg_index.create_ratio ~n ~tie ~num:k0 ~den:live.(1) ~k2 ~refresh ()
  in
  { shape; largest; n; live; idx }

(* The documented orders, restated over the live columns. *)
let better m a b =
  let col c j = m.live.(c).(j) in
  let tie () = if m.largest then a > b else a < b in
  let then_k2 ka kb = ka > kb || (ka = kb && tie ()) in
  match m.shape with
  | Lex ->
    col 0 a > col 0 b || (col 0 a = col 0 b && then_k2 (col 1 a) (col 1 b))
  | Ratio ->
    let da = col 1 a and db = col 1 b in
    if da > 0 && db > 0 then
      let x = col 0 a * db and y = col 0 b * da in
      x > y || (x = y && then_k2 (col 2 a) (col 2 b))
    else if da > 0 then true
    else if db > 0 then false
    else tie ()

let scan m ~except =
  let best = ref (-1) in
  for j = 0 to m.n - 1 do
    if j <> except && (!best < 0 || better m j !best) then best := j
  done;
  !best

let reads_agree m =
  Agg_index.top m.idx = scan m ~except:(-1)
  && List.for_all
       (fun j -> Agg_index.top_excluding m.idx j = scan m ~except:j)
       (List.init m.n Fun.id)

type op = Write of int * int * int | Mark of int

let apply m = function
  | Write (j, c, v) ->
    m.live.(c).(j) <- v;
    Agg_index.invalidate m.idx j
  | Mark j -> Agg_index.invalidate m.idx j

(* Which call settles the batch: a read, whose answer must already be
   right, or [check]. *)
type first = Top | Excl of int | Check

let settle_and_read m first =
  let first_ok =
    match first with
    | Top -> Agg_index.top m.idx = scan m ~except:(-1)
    | Excl j -> Agg_index.top_excluding m.idx j = scan m ~except:j
    | Check ->
      Agg_index.check m.idx;
      true
  in
  let ok = first_ok && reads_agree m in
  Agg_index.check m.idx;
  ok

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* [live.(0)] feeds a derived key, so a write to it that skips [invalidate]
   leaves a stale key behind whatever the match outcomes. *)
let unmarked_write_detected m j =
  m.live.(0).(j) <- m.live.(0).(j) + 1;
  let raised = raises_invalid (fun () -> Agg_index.check m.idx) in
  Agg_index.invalidate m.idx j;
  raised

let sizes = [ 1; 2; 3; 7; 8; 9; 15; 16; 17; 63; 64; 65 ]

let value_gen c =
  QCheck2.Gen.(
    match c with
    | 0 -> int_range (-4) 4
    | 1 -> int_range (-2) 4 (* the ratio order's den: <= 0 is ineligible *)
    | _ -> int_range (-3) 3)

let op_gen n =
  QCheck2.Gen.(
    let elt =
      (* A narrow pool makes batches repeat elements. *)
      frequency [ (3, int_range 0 (n - 1)); (1, int_range 0 (min 2 (n - 1))) ]
    in
    frequency
      [
        ( 4,
          let* j = elt in
          let* c = int_range 0 2 in
          let* v = value_gen c in
          pure (Write (j, c, v)) );
        (1, map (fun j -> Mark j) elt);
      ])

let case_gen =
  QCheck2.Gen.(
    let* n = oneofl sizes in
    let* shape = oneofl [ Lex; Ratio ] in
    let* largest = bool in
    let* init =
      let* c0 = array_size (pure n) (value_gen 0) in
      let* c1 = array_size (pure n) (value_gen 1) in
      let* c2 = array_size (pure n) (value_gen 2) in
      pure [| c0; c1; c2 |]
    in
    let batch =
      let* size =
        frequency [ (3, int_range 0 3); (2, int_range 0 (3 * n)) ]
      in
      let* ops = list_size (pure size) (op_gen n) in
      let* first =
        oneof
          [ pure Top; map (fun j -> Excl j) (int_range 0 (n - 1)); pure Check ]
      in
      pure (ops, first)
    in
    let* batches = list_size (int_range 1 8) batch in
    let* probe = int_range 0 (n - 1) in
    pure (n, shape, largest, init, batches, probe))

let print_case (n, shape, largest, _, batches, probe) =
  Printf.sprintf "n=%d %s tie=%s batches=[%s] probe=%d" n
    (match shape with Lex -> "lex" | Ratio -> "ratio")
    (if largest then "largest" else "smallest")
    (String.concat "; "
       (List.map
          (fun (ops, _) ->
            String.concat ","
              (List.map
                 (function
                   | Write (j, c, v) -> Printf.sprintf "w%d.%d=%d" j c v
                   | Mark j -> Printf.sprintf "m%d" j)
                 ops))
          batches))
    probe

let prop_lockstep =
  QCheck2.Test.make ~name:"index reads = brute-force argmax" ~count:300
    ~print:print_case case_gen
    (fun (_, shape, largest, init, batches, probe) ->
      let m = make_model shape ~largest ~init in
      List.for_all
        (fun (ops, first) ->
          List.iter (apply m) ops;
          settle_and_read m first)
        batches
      (* Settled, so [probe] is not pending: its unmarked write must
         surface in [check]. *)
      && unmarked_write_detected m probe)

(* [refresh] re-derives every key and leaves nothing pending: writes made
   without any mark read back correctly, and an element marked before the
   refresh is settled by it — a later unmarked write to it is caught. *)
let prop_refresh_clears_pending =
  QCheck2.Test.make ~name:"refresh leaves nothing pending" ~count:200
    ~print:print_case case_gen
    (fun (_, shape, largest, init, batches, probe) ->
      let m = make_model shape ~largest ~init in
      List.for_all
        (fun (ops, _) ->
          List.iter
            (function
              | Write (j, c, v) -> m.live.(c).(j) <- v
              | Mark j -> Agg_index.invalidate m.idx j)
            ops;
          Agg_index.refresh m.idx;
          reads_agree m)
        batches
      &&
      (Agg_index.invalidate m.idx probe;
       Agg_index.refresh m.idx;
       unmarked_write_detected m probe))

let test_bad_index () =
  let m =
    make_model Lex ~largest:true ~init:[| [| 1; 2 |]; [| 0; 0 |]; [| 0; 0 |] |]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "invalidate %d rejected" j)
        true
        (raises_invalid (fun () -> Agg_index.invalidate m.idx j));
      Alcotest.(check bool)
        (Printf.sprintf "top_excluding %d rejected" j)
        true
        (raises_invalid (fun () ->
             ignore (Agg_index.top_excluding m.idx j : int))))
    [ -1; 2 ];
  Alcotest.(check int) "top" 1 (Agg_index.top m.idx);
  let single =
    make_model Ratio ~largest:false ~init:[| [| 1 |]; [| 1 |]; [| 0 |] |]
  in
  Alcotest.(check int) "n = 1 excluding itself" (-1)
    (Agg_index.top_excluding single.idx 0)

let suite =
  [
    Qc.to_alcotest prop_lockstep;
    Qc.to_alcotest prop_refresh_clears_pending;
    Alcotest.test_case "bad indexes rejected" `Quick test_bad_index;
  ]
