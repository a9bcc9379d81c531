open Smbm_prelude

(* Occupancy bitsets pack value level v into bit [v mod 63] of word
   [v / 63]: 63 levels per word, every bit of OCaml's native int.  Level
   [v mod 63 = 62] is bit 62, the sign bit ([1 lsl 62 = min_int]), so the
   scans below assume no clear top bit; they rely instead on native ints
   wrapping modulo 2^63.  [w land -w] isolates the lowest set bit, and
   [w - (w lsr 1)] of the right-smeared word the highest ([lsr] is logical,
   so bit 62 never spreads).  [bit_index] reads the isolated bit's index
   off one multiply by a de Bruijn constant: [(1 lsl i) * debruijn] is the
   constant shifted left by [i] with every bit past 62 dropped, and its top
   six bits ([lsr 57]) are a window of the constant that differs for each
   i in 0..62 (the table build checks it).  No operand leaves the native
   int, so nothing is sign-extended or boxed.  The scheme needs a native
   int of exactly 63 bits; the init-time check turns any other width into
   an immediate error. *)

let () =
  if Sys.int_size <> 63 then
    failwith
      (Printf.sprintf
         "Value_switch: native int is %d bits, but the occupancy bitset packs \
          63 value levels per word and its bit scans wrap modulo 2^63 — only \
          63-bit ints are supported"
         Sys.int_size)

(* A 64-bit de Bruijn sequence B(2, 6) whose top six bits are clear, so it
   is a positive native int and its 63-bit windows stay distinct. *)
let debruijn = 0x03f7_9d71_b4cb_0a89

(* [debruijn_index.((1 lsl i) * debruijn lsr 57) = i] for i in 0..62. *)
let debruijn_index =
  let t = Array.make 64 (-1) in
  for i = 0 to 62 do
    let j = ((1 lsl i) * debruijn) lsr 57 in
    if t.(j) <> -1 then failwith "Value_switch: de Bruijn windows collide";
    t.(j) <- i
  done;
  t

(* Index of the single set bit of [b]; [b] may be [min_int] (bit 62). *)
let[@inline] bit_index b =
  Array.unsafe_get debruijn_index ((b * debruijn) lsr 57)

let[@inline] low_bit_index w = bit_index (w land -w)

let[@inline] high_bit_index w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  let w = w lor (w lsr 16) in
  let w = w lor (w lsr 32) in
  bit_index (w - (w lsr 1))

(* One struct-of-arrays slab of [cap] packet slots (columns: value,
   arrival, id, plus intrusive next/prev links) with a free-list stack.
   Each (port, value-level) bucket is a doubly-linked list threaded through
   the link columns (head = oldest, tail = youngest), and each port carries
   an occupancy bitset, so min/max reads stay O(k/63), as does the buffer
   minimum off a buffer-wide value histogram and its level bitset.  Accept,
   push-out and transmission never allocate on a warmed switch.

   The slab columns (indexed by slot id) are off-heap {!Int_col}s — never
   scanned by the GC, shareable read-only across domains.  The n-sized
   per-port aggregates ([qlen]/[qsum]) and the bucket/bitset tables stay
   ordinary [int array]s: the aggregates are the columns the victim
   selectors scan directly, and the tables are port-indexed bookkeeping. *)
type view = {
  view_wpp : int;
  view_qlen : int array;
  view_qsum : int array;
  view_occ : int array;
}

type t = {
  config : Value_config.t;
  n : int;
  k : int;
  wpp : int; (* bitset words per port: k/63 + 1 *)
  mutable cap : int; (* slab capacity; grows with set_buffer, never shrinks *)
  mutable value : Int_col.t; (* columns, indexed by slot id *)
  mutable arrival : Int_col.t;
  mutable pid : Int_col.t;
  mutable nxt : Int_col.t; (* intra-bucket links; -1 terminates *)
  mutable prv : Int_col.t;
  mutable free : Int_col.t; (* stack of free slot ids *)
  mutable free_top : int;
  bhead : int array; (* bucket head slot, index [i * k + (v - 1)]; -1 empty *)
  btail : int array;
  occ : int array; (* bitsets, index [i * wpp + v / 63], bit [v mod 63] *)
  qlen : int array; (* per-port packet count *)
  qsum : int array; (* per-port total value *)
  vcount : int array; (* buffer-wide packets per value level, index v *)
  vocc : int array; (* bitset of the non-zero [vcount] levels, wpp words *)
  mutable buffer : int;
  mutable occupancy : int;
  mutable next_id : int;
  mutable now : int;
  view : view; (* built once: its fields alias the columns above *)
}

(* Lowest level set in the bitset slice at word [base], which the caller
   guarantees non-empty, so the scan stays inside it and skips bounds
   checks on this per-admission path. *)
let low_level occ base =
  let w = ref 0 in
  while Array.unsafe_get occ (base + !w) = 0 do
    incr w
  done;
  (!w * 63) + low_bit_index (Array.unsafe_get occ (base + !w))

(* Parameterized over the raw columns so the same scan serves both the
   switch internals and a policy-held {!view}. *)
let min_scan ~occ ~wpp ~qlen i ~default =
  if Array.unsafe_get qlen i = 0 then default else low_level occ (i * wpp)

let port_min_value_or t i ~default =
  min_scan ~occ:t.occ ~wpp:t.wpp ~qlen:t.qlen i ~default

let view_min_value_or v i ~default =
  min_scan ~occ:v.view_occ ~wpp:v.view_wpp ~qlen:v.view_qlen i ~default

let port_max_value_or t i ~default =
  if Array.unsafe_get t.qlen i = 0 then default
  else begin
    let base = i * t.wpp in
    let w = ref (t.wpp - 1) in
    while Array.unsafe_get t.occ (base + !w) = 0 do
      decr w
    done;
    (!w * 63) + high_bit_index (Array.unsafe_get t.occ (base + !w))
  end

let create (config : Value_config.t) =
  let n = Value_config.n config in
  let k = Value_config.k config in
  let cap = config.Value_config.buffer in
  let wpp = (k / 63) + 1 in
  let occ = Array.make (n * wpp) 0
  and qlen = Array.make n 0
  and qsum = Array.make n 0 in
  {
    config;
    n;
    k;
    wpp;
    cap;
    value = Int_col.create cap;
    arrival = Int_col.create cap;
    pid = Int_col.create cap;
    nxt = Int_col.create ~fill:(-1) cap;
    prv = Int_col.create ~fill:(-1) cap;
    free = Int_col.init cap (fun s -> s);
    free_top = cap;
    bhead = Array.make (n * k) (-1);
    btail = Array.make (n * k) (-1);
    occ;
    qlen;
    qsum;
    vcount = Array.make (k + 1) 0;
    vocc = Array.make wpp 0;
    buffer = cap;
    occupancy = 0;
    next_id = 0;
    now = 0;
    view =
      {
        view_wpp = wpp;
        view_qlen = qlen;
        view_qsum = qsum;
        view_occ = occ;
      };
  }

let config t = t.config
let n t = t.n
let k t = t.k
let buffer t = t.buffer

let grow t cap' =
  t.value <- Int_col.grow t.value ~len:cap' ~fill:0;
  t.arrival <- Int_col.grow t.arrival ~len:cap' ~fill:0;
  t.pid <- Int_col.grow t.pid ~len:cap' ~fill:0;
  t.nxt <- Int_col.grow t.nxt ~len:cap' ~fill:(-1);
  t.prv <- Int_col.grow t.prv ~len:cap' ~fill:(-1);
  let free' = Int_col.create cap' in
  Int_col.blit ~src:t.free ~src_pos:0 ~dst:free' ~dst_pos:0 ~len:t.free_top;
  t.free <- free';
  for s = t.cap to cap' - 1 do
    Int_col.set t.free t.free_top s;
    t.free_top <- t.free_top + 1
  done;
  t.cap <- cap'

let set_buffer t b =
  if b < 1 then invalid_arg "Value_switch.set_buffer: buffer must be >= 1";
  if b < t.occupancy then
    invalid_arg
      "Value_switch.set_buffer: new buffer smaller than current occupancy";
  if b > t.cap then grow t b;
  t.buffer <- b

let speedup t = t.config.Value_config.speedup
let now t = t.now
let advance_slot t = t.now <- t.now + 1
let occupancy t = t.occupancy
let free_space t = buffer t - t.occupancy
let is_full t = t.occupancy >= buffer t

let check_port t i name =
  if i < 0 || i >= t.n then invalid_arg ("Value_switch." ^ name ^ ": bad port")

let queue_length t i =
  check_port t i "queue_length";
  t.qlen.(i)

let queue_total_value t i =
  check_port t i "queue_total_value";
  t.qsum.(i)

let queue_min_value_or t i ~default =
  check_port t i "queue_min_value_or";
  port_min_value_or t i ~default

let view t = t.view

let min_value_or t ~default =
  if t.occupancy = 0 then default else low_level t.vocc 0

(* ----- bucket mechanics ----- *)

(* The bucket/bitset indices below are in bounds by construction (ports
   and values validated at the public entry points, slot ids confined to
   [0, cap) by the slab invariants), so these per-packet ops skip the
   bounds check. *)

let mark occ base v =
  let w = base + (v / 63) in
  Array.unsafe_set occ w (Array.unsafe_get occ w lor (1 lsl (v mod 63)))

let unmark occ base v =
  let w = base + (v / 63) in
  Array.unsafe_set occ w (Array.unsafe_get occ w land lnot (1 lsl (v mod 63)))

let count_in t v =
  let c = Array.unsafe_get t.vcount v in
  Array.unsafe_set t.vcount v (c + 1);
  if c = 0 then mark t.vocc 0 v

let count_out t v =
  let c = Array.unsafe_get t.vcount v - 1 in
  Array.unsafe_set t.vcount v c;
  if c = 0 then unmark t.vocc 0 v

(* Append slot [s] (already carrying its columns) at the tail (youngest end)
   of bucket (i, v). *)
let bucket_push t i v s =
  let b = (i * t.k) + (v - 1) in
  let tl = Array.unsafe_get t.btail b in
  Int_col.unsafe_set t.prv s tl;
  Int_col.unsafe_set t.nxt s (-1);
  if tl = -1 then begin
    Array.unsafe_set t.bhead b s;
    mark t.occ (i * t.wpp) v
  end
  else Int_col.unsafe_set t.nxt tl s;
  Array.unsafe_set t.btail b s

(* Remove and return the youngest slot of bucket (i, v) — the push-out
   end. *)
let bucket_pop_tail t i v =
  let b = (i * t.k) + (v - 1) in
  let s = Array.unsafe_get t.btail b in
  let p = Int_col.unsafe_get t.prv s in
  Array.unsafe_set t.btail b p;
  if p = -1 then begin
    Array.unsafe_set t.bhead b (-1);
    unmark t.occ (i * t.wpp) v
  end
  else Int_col.unsafe_set t.nxt p (-1);
  s

(* Remove and return the oldest slot of bucket (i, v) — the transmission
   end. *)
let bucket_pop_head t i v =
  let b = (i * t.k) + (v - 1) in
  let s = Array.unsafe_get t.bhead b in
  let nx = Int_col.unsafe_get t.nxt s in
  Array.unsafe_set t.bhead b nx;
  if nx = -1 then begin
    Array.unsafe_set t.btail b (-1);
    unmark t.occ (i * t.wpp) v
  end
  else Int_col.unsafe_set t.prv nx (-1);
  s

(* ----- mutations (every one keeps the aggregates in sync) ----- *)

let accept t ~dest ~value =
  if is_full t then invalid_arg "Value_switch.accept: buffer full";
  check_port t dest "accept";
  if value < 1 || value > t.k then
    invalid_arg "Value_switch.accept: value out of range";
  let s = Int_col.unsafe_get t.free (t.free_top - 1) in
  t.free_top <- t.free_top - 1;
  Int_col.unsafe_set t.value s value;
  Int_col.unsafe_set t.arrival s t.now;
  Int_col.unsafe_set t.pid s t.next_id;
  t.next_id <- t.next_id + 1;
  bucket_push t dest value s;
  count_in t value;
  Array.unsafe_set t.qlen dest (Array.unsafe_get t.qlen dest + 1);
  Array.unsafe_set t.qsum dest (Array.unsafe_get t.qsum dest + value);
  t.occupancy <- t.occupancy + 1

let push_out t ~victim =
  check_port t victim "push_out";
  if Array.unsafe_get t.qlen victim = 0 then
    invalid_arg "Value_switch.push_out: victim queue empty";
  let v = port_min_value_or t victim ~default:0 in
  let s = bucket_pop_tail t victim v in
  count_out t v;
  Array.unsafe_set t.qlen victim (Array.unsafe_get t.qlen victim - 1);
  Array.unsafe_set t.qsum victim (Array.unsafe_get t.qsum victim - v);
  t.occupancy <- t.occupancy - 1;
  Int_col.unsafe_set t.free t.free_top s;
  t.free_top <- t.free_top + 1;
  v

let transmit_phase t ~on_transmit =
  let budget = speedup t in
  let transmitted = ref 0 in
  for i = 0 to t.n - 1 do
    let sent = ref 0 in
    while !sent < budget && Array.unsafe_get t.qlen i > 0 do
      let v = port_max_value_or t i ~default:0 in
      let s = bucket_pop_head t i v in
      count_out t v;
      Array.unsafe_set t.qlen i (Array.unsafe_get t.qlen i - 1);
      Array.unsafe_set t.qsum i (Array.unsafe_get t.qsum i - v);
      t.occupancy <- t.occupancy - 1;
      Int_col.unsafe_set t.free t.free_top s;
      t.free_top <- t.free_top + 1;
      (* Account the transmission before the user hook runs, so a raising
         hook propagates out of a consistent switch. *)
      incr sent;
      incr transmitted;
      on_transmit ~dest:i ~value:v ~arrival:(Int_col.unsafe_get t.arrival s)
    done
  done;
  !transmitted

let iter_port t i f =
  check_port t i "iter_port";
  for v = t.k downto 1 do
    let s = ref t.bhead.((i * t.k) + (v - 1)) in
    while !s <> -1 do
      f ~id:(Int_col.get t.pid !s) ~value:v ~arrival:(Int_col.get t.arrival !s);
      s := Int_col.get t.nxt !s
    done
  done

let flush t =
  let dropped = ref 0 in
  for i = 0 to t.n - 1 do
    for v = 1 to t.k do
      let b = (i * t.k) + (v - 1) in
      let s = ref t.bhead.(b) in
      while !s <> -1 do
        incr dropped;
        Int_col.set t.free t.free_top !s;
        t.free_top <- t.free_top + 1;
        s := Int_col.get t.nxt !s
      done;
      t.bhead.(b) <- -1;
      t.btail.(b) <- -1
    done;
    t.qlen.(i) <- 0;
    t.qsum.(i) <- 0
  done;
  Array.fill t.occ 0 (Array.length t.occ) 0;
  Array.fill t.vcount 0 (t.k + 1) 0;
  Array.fill t.vocc 0 t.wpp 0;
  t.occupancy <- t.occupancy - !dropped;
  (* A real check, not [assert]: release builds compiled with [-noassert]
     must refuse to continue from a corrupted occupancy count too. *)
  if t.occupancy <> 0 then
    invalid_arg "Value_switch.flush: occupancy out of sync with queue contents";
  !dropped

let check_invariants t =
  let seen = Array.make t.cap false in
  let len_sum = ref 0 in
  for i = 0 to t.n - 1 do
    let qlen = ref 0 and qsum = ref 0 in
    for v = 1 to t.k do
      let b = (i * t.k) + (v - 1) in
      let occupied =
        t.occ.((i * t.wpp) + (v / 63)) land (1 lsl (v mod 63)) <> 0
      in
      if occupied <> (t.bhead.(b) <> -1) then
        invalid_arg "Value_switch: bitset out of sync with buckets";
      if (t.bhead.(b) = -1) <> (t.btail.(b) = -1) then
        invalid_arg "Value_switch: bucket head/tail out of sync";
      let s = ref t.bhead.(b) and prev = ref (-1) in
      while !s <> -1 do
        if !s < 0 || !s >= t.cap then
          invalid_arg "Value_switch: slot id out of range";
        if seen.(!s) then invalid_arg "Value_switch: slot id used twice";
        seen.(!s) <- true;
        if Int_col.get t.value !s <> v then
          invalid_arg "Value_switch: slot in wrong value bucket";
        if Int_col.get t.prv !s <> !prev then
          invalid_arg "Value_switch: broken prev link";
        incr qlen;
        qsum := !qsum + v;
        prev := !s;
        s := Int_col.get t.nxt !s
      done;
      if t.bhead.(b) <> -1 && t.btail.(b) <> !prev then
        invalid_arg "Value_switch: bucket tail out of sync"
    done;
    if !qlen <> t.qlen.(i) then
      invalid_arg "Value_switch: cached queue length out of sync";
    if !qsum <> t.qsum.(i) then
      invalid_arg "Value_switch: cached total value out of sync";
    len_sum := !len_sum + !qlen
  done;
  if !len_sum <> t.occupancy then
    invalid_arg "Value_switch: occupancy out of sync with buckets";
  if t.occupancy > buffer t then invalid_arg "Value_switch: occupancy exceeds B";
  if t.free_top + t.occupancy <> t.cap then
    invalid_arg "Value_switch: free list out of sync with occupancy";
  for j = 0 to t.free_top - 1 do
    let s = Int_col.get t.free j in
    if s < 0 || s >= t.cap then
      invalid_arg "Value_switch: free slot id out of range";
    if seen.(s) then invalid_arg "Value_switch: free slot also queued";
    seen.(s) <- true
  done;
  (* Recount the (validated) buckets value by value, allocating nothing. *)
  for v = 1 to t.k do
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      let s = ref t.bhead.((i * t.k) + (v - 1)) in
      while !s <> -1 do
        incr c;
        s := Int_col.get t.nxt !s
      done
    done;
    if !c <> t.vcount.(v) then
      invalid_arg "Value_switch: value histogram out of sync with buckets";
    if t.vocc.(v / 63) land (1 lsl (v mod 63)) <> 0 <> (!c > 0) then
      invalid_arg "Value_switch: value bitset out of sync with histogram"
  done
