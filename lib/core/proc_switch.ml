open Smbm_prelude

(* One struct-of-arrays slab of [cap] packet slots (columns: residual work,
   value, arrival slot, packet id) with a free-list stack, and one contiguous
   ring of slot ids per port.  Accept, push-out and transmission never allocate
   on a warmed switch.

   The slab columns (indexed by slot id) are off-heap {!Int_col}s: the GC
   never scans them, and they can be shared read-only across domains.  The
   per-port aggregates ([qlen]/[qwork]/[qvalue]/[works]) stay ordinary
   [int array]s: they are the columns the victim selectors scan directly. *)
type view = {
  view_works : int array;
  view_qlen : int array;
  view_qwork : int array;
  view_qvalue : int array;
}

type t = {
  config : Proc_config.t;
  n : int;
  works : int array; (* per-port required work (configuration copy) *)
  max_value : int;
  mutable cap : int; (* slab capacity; grows with set_buffer, never shrinks *)
  mutable residual : Int_col.t; (* columns, indexed by slot id *)
  mutable value : Int_col.t;
  mutable arrival : Int_col.t;
  mutable pid : Int_col.t;
  mutable free : Int_col.t; (* stack of free slot ids *)
  mutable free_top : int;
  rings : Int_ring.t array; (* per-port FIFO of occupied slot ids *)
  qlen : int array; (* per-port packet count (= ring length, maintained) *)
  qwork : int array; (* per-port total residual work (W_i) *)
  qvalue : int array; (* per-port total value (V_i) *)
  mutable buffer : int;
  mutable occupancy : int;
  mutable occupied_work : int;
  mutable next_id : int;
  mutable now : int;
  view : view; (* built once: its fields alias the columns above *)
}

let create (config : Proc_config.t) =
  let n = Proc_config.n config in
  let cap = config.Proc_config.buffer in
  let works = Array.init n (Proc_config.work config)
  and qlen = Array.make n 0
  and qwork = Array.make n 0
  and qvalue = Array.make n 0 in
  {
    config;
    n;
    works;
    max_value = config.Proc_config.max_value;
    cap;
    residual = Int_col.create cap;
    value = Int_col.create cap;
    arrival = Int_col.create cap;
    pid = Int_col.create cap;
    free = Int_col.init cap (fun s -> s);
    free_top = cap;
    rings = Array.init n (fun _ -> Int_ring.create ());
    qlen;
    qwork;
    qvalue;
    buffer = cap;
    occupancy = 0;
    occupied_work = 0;
    next_id = 0;
    now = 0;
    view =
      {
        view_works = works;
        view_qlen = qlen;
        view_qwork = qwork;
        view_qvalue = qvalue;
      };
  }

let config t = t.config
let n t = t.n
let buffer t = t.buffer

let grow t cap' =
  let grow c = Int_col.grow c ~len:cap' ~fill:0 in
  t.residual <- grow t.residual;
  t.value <- grow t.value;
  t.arrival <- grow t.arrival;
  t.pid <- grow t.pid;
  let free' = Int_col.create cap' in
  Int_col.blit ~src:t.free ~src_pos:0 ~dst:free' ~dst_pos:0 ~len:t.free_top;
  t.free <- free';
  for s = t.cap to cap' - 1 do
    Int_col.set t.free t.free_top s;
    t.free_top <- t.free_top + 1
  done;
  t.cap <- cap'

let set_buffer t b =
  if b < 1 then invalid_arg "Proc_switch.set_buffer: buffer must be >= 1";
  if b < t.occupancy then
    invalid_arg
      "Proc_switch.set_buffer: new buffer smaller than current occupancy";
  if b > t.cap then grow t b;
  t.buffer <- b

let speedup t = t.config.Proc_config.speedup
let now t = t.now
let advance_slot t = t.now <- t.now + 1
let occupancy t = t.occupancy
let free_space t = buffer t - t.occupancy
let is_full t = t.occupancy >= buffer t

let check_port t i name =
  if i < 0 || i >= t.n then invalid_arg ("Proc_switch." ^ name ^ ": bad port")

let queue_length t i =
  check_port t i "queue_length";
  t.qlen.(i)

let queue_work t i =
  check_port t i "queue_work";
  t.qwork.(i)

let queue_value t i =
  check_port t i "queue_value";
  t.qvalue.(i)

let tail_value t i =
  check_port t i "tail_value";
  let ring = t.rings.(i) in
  let len = Int_ring.length ring in
  if len = 0 then 0 else Int_col.get t.value (Int_ring.get ring (len - 1))

let port_work t i = Proc_config.work t.config i
let total_occupied_work t = t.occupied_work

let view t = t.view

(* ----- mutations (every one keeps the aggregates in sync) ----- *)

(* Slot ids and the free stack stay inside [0, cap) / [0, cap] by the slab
   invariants ([check_invariants] proves them), and [dest]/[victim] are
   validated by the public entry points — so the column accesses here skip
   the bounds check.  This is the per-packet hot path. *)
let accept t ~dest ~value =
  if is_full t then invalid_arg "Proc_switch.accept: buffer full";
  check_port t dest "accept";
  if value < 1 || value > t.max_value then
    invalid_arg "Proc_switch.accept: value out of range";
  let s = Int_col.unsafe_get t.free (t.free_top - 1) in
  t.free_top <- t.free_top - 1;
  let work = Array.unsafe_get t.works dest in
  Int_col.unsafe_set t.residual s work;
  Int_col.unsafe_set t.value s value;
  Int_col.unsafe_set t.arrival s t.now;
  Int_col.unsafe_set t.pid s t.next_id;
  t.next_id <- t.next_id + 1;
  Int_ring.push_back (Array.unsafe_get t.rings dest) s;
  Array.unsafe_set t.qlen dest (Array.unsafe_get t.qlen dest + 1);
  Array.unsafe_set t.qwork dest (Array.unsafe_get t.qwork dest + work);
  Array.unsafe_set t.qvalue dest (Array.unsafe_get t.qvalue dest + value);
  t.occupancy <- t.occupancy + 1;
  t.occupied_work <- t.occupied_work + work

let push_out t ~victim =
  check_port t victim "push_out";
  let ring = Array.unsafe_get t.rings victim in
  if Int_ring.is_empty ring then
    invalid_arg "Proc_switch.push_out: victim queue empty";
  let s = Int_ring.pop_back ring in
  let r = Int_col.unsafe_get t.residual s in
  let v = Int_col.unsafe_get t.value s in
  Array.unsafe_set t.qlen victim (Array.unsafe_get t.qlen victim - 1);
  Array.unsafe_set t.qwork victim (Array.unsafe_get t.qwork victim - r);
  Array.unsafe_set t.qvalue victim (Array.unsafe_get t.qvalue victim - v);
  t.occupancy <- t.occupancy - 1;
  t.occupied_work <- t.occupied_work - r;
  Int_col.unsafe_set t.free t.free_top s;
  t.free_top <- t.free_top + 1;
  v

(* Head-of-line, run-to-completion service of one port; each packet is
   fully accounted before its hook runs, so a raising hook leaves a
   consistent switch. *)
let serve t i ~on_transmit =
  let ring = Array.unsafe_get t.rings i in
  if Int_ring.is_empty ring then 0
  else begin
    let budget = ref (speedup t) and sent = ref 0 in
    while !budget > 0 && not (Int_ring.is_empty ring) do
      let s = Int_ring.peek_front ring in
      let r = Int_col.unsafe_get t.residual s in
      let served = if !budget < r then !budget else r in
      Int_col.unsafe_set t.residual s (r - served);
      Array.unsafe_set t.qwork i (Array.unsafe_get t.qwork i - served);
      t.occupied_work <- t.occupied_work - served;
      budget := !budget - served;
      if served = r then begin
        ignore (Int_ring.pop_front ring : int);
        let v = Int_col.unsafe_get t.value s in
        Array.unsafe_set t.qlen i (Array.unsafe_get t.qlen i - 1);
        Array.unsafe_set t.qvalue i (Array.unsafe_get t.qvalue i - v);
        Int_col.unsafe_set t.free t.free_top s;
        t.free_top <- t.free_top + 1;
        t.occupancy <- t.occupancy - 1;
        incr sent;
        on_transmit ~dest:i ~value:v ~arrival:(Int_col.unsafe_get t.arrival s)
      end
    done;
    !sent
  end

let serve_port t i ~on_transmit =
  check_port t i "serve_port";
  serve t i ~on_transmit

let transmit_phase t ~on_transmit =
  let transmitted = ref 0 in
  for i = 0 to t.n - 1 do
    transmitted := !transmitted + serve t i ~on_transmit
  done;
  !transmitted

let iter_port t i f =
  check_port t i "iter_port";
  Int_ring.iter
    (fun s ->
      f ~id:(Int_col.get t.pid s) ~residual:(Int_col.get t.residual s)
        ~value:(Int_col.get t.value s) ~arrival:(Int_col.get t.arrival s))
    t.rings.(i)

let flush t =
  let dropped = ref 0 in
  for i = 0 to t.n - 1 do
    let ring = t.rings.(i) in
    dropped := !dropped + Int_ring.length ring;
    (* An index loop, not [Int_ring.iter]: a closure over [t] per port
       would allocate on every flushout. *)
    for j = 0 to Int_ring.length ring - 1 do
      Int_col.set t.free (t.free_top + j) (Int_ring.get ring j)
    done;
    t.free_top <- t.free_top + Int_ring.length ring;
    Int_ring.clear ring;
    t.qlen.(i) <- 0;
    t.qwork.(i) <- 0;
    t.qvalue.(i) <- 0
  done;
  t.occupancy <- t.occupancy - !dropped;
  t.occupied_work <- 0;
  (* A real check, not [assert]: release builds compiled with [-noassert]
     must refuse to continue from a corrupted occupancy count too. *)
  if t.occupancy <> 0 then
    invalid_arg "Proc_switch.flush: occupancy out of sync with queue contents";
  !dropped

let check_invariants t =
  let seen = Array.make t.cap false in
  let len_sum = ref 0 and work_sum = ref 0 in
  for i = 0 to t.n - 1 do
    let ring = t.rings.(i) in
    if t.qlen.(i) <> Int_ring.length ring then
      invalid_arg "Proc_switch: cached queue length out of sync";
    len_sum := !len_sum + Int_ring.length ring;
    let qwork = ref 0 and qvalue = ref 0 in
    for j = 0 to Int_ring.length ring - 1 do
      let s = Int_ring.get ring j in
      if s < 0 || s >= t.cap then invalid_arg "Proc_switch: slot id out of range";
      if seen.(s) then invalid_arg "Proc_switch: slot id used twice";
      seen.(s) <- true;
      let r = Int_col.get t.residual s in
      if r < 1 || r > t.works.(i) then
        invalid_arg "Proc_switch: residual out of range";
      (* Only the head-of-line packet may be partially processed. *)
      if j > 0 && r <> t.works.(i) then
        invalid_arg "Proc_switch: non-HOL packet partially processed";
      qwork := !qwork + r;
      let v = Int_col.get t.value s in
      if v < 1 || v > t.max_value then
        invalid_arg "Proc_switch: value out of range";
      qvalue := !qvalue + v
    done;
    if !qwork <> t.qwork.(i) then
      invalid_arg "Proc_switch: cached per-port work out of sync";
    if !qvalue <> t.qvalue.(i) then
      invalid_arg "Proc_switch: cached per-port value out of sync";
    work_sum := !work_sum + !qwork
  done;
  if !len_sum <> t.occupancy then
    invalid_arg "Proc_switch: occupancy out of sync with ring lengths";
  if t.occupancy > buffer t then invalid_arg "Proc_switch: occupancy exceeds B";
  if !work_sum <> t.occupied_work then
    invalid_arg "Proc_switch: cached occupied work out of sync";
  if t.free_top + t.occupancy <> t.cap then
    invalid_arg "Proc_switch: free list out of sync with occupancy";
  for j = 0 to t.free_top - 1 do
    let s = Int_col.get t.free j in
    if s < 0 || s >= t.cap then
      invalid_arg "Proc_switch: free slot id out of range";
    if seen.(s) then invalid_arg "Proc_switch: free slot also queued";
    seen.(s) <- true
  done
