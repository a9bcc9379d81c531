(* Per-layer spans recorded from outside the program.

   The traced run wraps every closure of an [Instance.t] and the workload
   that feeds it, and times each call with the monotonic clock.  A wrapped
   instance makes exactly the calls the bare one would, in the same order,
   so the traced run must reproduce the untraced digest.  Spans are per
   slot and per instance, never per arrival: the clock is read a few dozen
   times per simulated slot, against tens of microseconds of work.

   Collectors are plain mutable records, one per task: a parallel run gives
   each task its own and merges them afterwards. *)

open Smbm_core
open Smbm_sim
module Workload = Smbm_traffic.Workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [Gc.minor_words] is unboxed in OCaml 5: truncating it allocates nothing. *)
let minor_words () = int_of_float (Gc.minor_words ())

type span = { mutable ns : int; mutable calls : int; mutable items : int }

let span () = { ns = 0; calls = 0; items = 0 }

let add s ~ns ~items =
  s.ns <- s.ns + ns;
  s.calls <- s.calls + 1;
  s.items <- s.items + items

let add_span dst src =
  dst.ns <- dst.ns + src.ns;
  dst.calls <- dst.calls + src.calls;
  dst.items <- dst.items + src.items

type t = {
  traffic : span;  (** one call per slot; items: arrivals delivered *)
  mutable traffic_words : int;  (** minor words allocated inside [traffic] *)
  mutable materialize_ns : int;  (** traces recorded before replay *)
  admit : (string, span) Hashtbl.t;
      (** "<model>.<policy>" -> arrival phase; items: arrivals offered *)
  mutable fast_arrivals : int;  (** arrivals offered through [arrive_batch] *)
  transmit : (string, span) Hashtbl.t;  (** model -> transmit phase *)
  end_slot : span;
  opt_ref : span;  (** every phase of the OPT reference; calls: slots *)
  audit : span;  (** [flush] and [check] *)
  mutable busy_ns : int;  (** traced time the layer shares divide *)
  mutable slots : int;  (** simulated (point-)slots *)
  mutable arrivals : int;  (** arrivals offered to policy instances *)
  mutable pushed_out : int;
  mutable dropped : int;
  mutable transmitted : int;
}

let create () =
  {
    traffic = span ();
    traffic_words = 0;
    materialize_ns = 0;
    admit = Hashtbl.create 32;
    fast_arrivals = 0;
    transmit = Hashtbl.create 4;
    end_slot = span ();
    opt_ref = span ();
    audit = span ();
    busy_ns = 0;
    slots = 0;
    arrivals = 0;
    pushed_out = 0;
    dropped = 0;
    transmitted = 0;
  }

let find tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
    let s = span () in
    Hashtbl.replace tbl key s;
    s

let merge_into dst src =
  add_span dst.traffic src.traffic;
  dst.traffic_words <- dst.traffic_words + src.traffic_words;
  dst.materialize_ns <- dst.materialize_ns + src.materialize_ns;
  Hashtbl.iter (fun k s -> add_span (find dst.admit k) s) src.admit;
  dst.fast_arrivals <- dst.fast_arrivals + src.fast_arrivals;
  Hashtbl.iter (fun k s -> add_span (find dst.transmit k) s) src.transmit;
  add_span dst.end_slot src.end_slot;
  add_span dst.opt_ref src.opt_ref;
  add_span dst.audit src.audit;
  dst.busy_ns <- dst.busy_ns + src.busy_ns;
  dst.slots <- dst.slots + src.slots;
  dst.arrivals <- dst.arrivals + src.arrivals;
  dst.pushed_out <- dst.pushed_out + src.pushed_out;
  dst.dropped <- dst.dropped + src.dropped;
  dst.transmitted <- dst.transmitted + src.transmitted

let total tbl = Hashtbl.fold (fun _ s acc -> acc + s.ns) tbl 0
let total_items tbl = Hashtbl.fold (fun _ s acc -> acc + s.items) tbl 0

(** Sum of the self times: every span is a leaf, so nothing is counted
    twice. *)
let covered t =
  t.traffic.ns + total t.admit + total t.transmit + t.end_slot.ns
  + t.opt_ref.ns + t.audit.ns

let timed s f () =
  let t0 = now_ns () in
  f ();
  add s ~ns:(now_ns () - t0) ~items:0

(** [workload t w] replays [w] unchanged, timing each slot's [next_into]
    as the traffic layer. *)
let workload t w =
  Workload.of_fun_into (fun batch _ ->
      let w0 = minor_words () in
      let t0 = now_ns () in
      Workload.next_into w batch;
      add t.traffic ~ns:(now_ns () - t0) ~items:(Arrival_batch.length batch);
      t.traffic_words <- t.traffic_words + (minor_words () - w0))

(** [instances t ~model insts] wraps a {!Sweep.setup} instance list: the
    head is the OPT reference, every phase of which is [opt_ref]; the rest
    are policies, split into admission (per policy), transmit (per model),
    end-of-slot and audit. *)
let instances t ~model insts =
  let wrap ~opt (i : Instance.t) =
    let arrive_all, fast =
      match i.arrive_batch with
      | Some f -> (f, true)
      | None -> ((fun b -> Arrival_batch.iter b ~f:i.arrive_dv), false)
    in
    let admit = if opt then t.opt_ref else find t.admit (model ^ "." ^ i.name) in
    let arrive b =
      let t0 = now_ns () in
      arrive_all b;
      let n = Arrival_batch.length b in
      add admit ~ns:(now_ns () - t0) ~items:n;
      if fast && not opt then t.fast_arrivals <- t.fast_arrivals + n
    in
    let transmit = if opt then t.opt_ref else find t.transmit model in
    let end_slot = if opt then t.opt_ref else t.end_slot in
    {
      i with
      arrive_batch = Some arrive;
      transmit = timed transmit i.transmit;
      end_slot = timed end_slot i.end_slot;
      flush = timed t.audit i.flush;
      check = timed t.audit i.check;
    }
  in
  match insts with
  | opt :: algs -> wrap ~opt:true opt :: List.map (wrap ~opt:false) algs
  | [] -> []

(** Fold a finished point's policy counters into the ratios' bases. *)
let count_point t ~slots algs =
  t.slots <- t.slots + slots;
  List.iter
    (fun (i : Instance.t) ->
      let m = i.metrics in
      t.arrivals <- t.arrivals + Metrics.arrivals m;
      t.pushed_out <- t.pushed_out + Metrics.pushed_out m;
      t.dropped <- t.dropped + Metrics.dropped m;
      t.transmitted <- t.transmitted + Metrics.transmitted m)
    algs
