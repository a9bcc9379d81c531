open Smbm_core

type t = {
  slots : Arrival_batch.t array;
  capacity : int;
  head : int Atomic.t;  (* consumer position: next slot to read *)
  tail : int Atomic.t;  (* producer position: next slot to write *)
  closed : bool Atomic.t;
  aborted : bool Atomic.t;
  shed_slots : int Atomic.t;
  shed_packets : int Atomic.t;
  scratch : Arrival_batch.t;  (* producer-only: shed generation target *)
  mutable max_occupancy : int;  (* producer-only *)
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Spsc_ring.create: capacity must be >= 1";
  {
    slots = Array.init capacity (fun _ -> Arrival_batch.create ());
    capacity;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    closed = Atomic.make false;
    aborted = Atomic.make false;
    shed_slots = Atomic.make 0;
    shed_packets = Atomic.make 0;
    scratch = Arrival_batch.create ();
    max_occupancy = 0;
  }

let capacity t = t.capacity
let length t = Atomic.get t.tail - Atomic.get t.head
let shed_slots t = Atomic.get t.shed_slots
let shed_packets t = Atomic.get t.shed_packets
let max_occupancy t = t.max_occupancy

type push_result = Pushed | Shed | Aborted

(* Back off while a full/empty condition persists: spin briefly to catch
   the common fast hand-off, then yield the core so a pinned pair of
   domains cannot starve the rest of the process. *)
let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002

(* The producer and consumer paths are top-level recursive functions over
   their arguments: a local closure would be allocated on every call, and
   every slot makes one call on each side. *)

let publish t fill tail =
  let batch = t.slots.(tail mod t.capacity) in
  Arrival_batch.clear batch;
  fill batch;
  (* The atomic store publishes the batch contents to the consumer. *)
  Atomic.set t.tail (tail + 1);
  let occ = tail + 1 - Atomic.get t.head in
  if occ > t.max_occupancy then t.max_occupancy <- occ;
  Pushed

(* Report the total stall once, on unblocking.  [blocked_since] is the
   monotonic instant (ns) the producer first found the ring full under
   [`Block], or -1 if it never waited (or nobody asked). *)
let settle on_block blocked_since result =
  (match on_block with
  | Some f when blocked_since >= 0 -> f (Clock.now_ns () - blocked_since)
  | _ -> ());
  result

let rec wait_for_space t on_block policy fill spins blocked_since =
  if Atomic.get t.aborted then settle on_block blocked_since Aborted
  else
    let tail = Atomic.get t.tail in
    if tail - Atomic.get t.head < t.capacity then
      settle on_block blocked_since (publish t fill tail)
    else
      match policy with
      | `Block ->
        let blocked_since =
          match on_block with
          | Some _ when blocked_since < 0 -> Clock.now_ns ()
          | _ -> blocked_since
        in
        backoff spins;
        wait_for_space t on_block policy fill (spins + 1) blocked_since
      | `Shed ->
        (* The workload still advances: fill a private batch, count it,
           drop it.  Loss is accounted, never silent. *)
        Arrival_batch.clear t.scratch;
        fill t.scratch;
        Atomic.incr t.shed_slots;
        Atomic.set t.shed_packets
          (Atomic.get t.shed_packets + Arrival_batch.length t.scratch);
        Shed

let produce t ?on_block ~policy ~fill () =
  if Atomic.get t.closed then
    invalid_arg "Spsc_ring.produce: ring already closed";
  wait_for_space t on_block policy fill 0 (-1)

let close t = Atomic.set t.closed true
let abort t = Atomic.set t.aborted true

type pop_result = Consumed | Drained | Stopped

let rec wait_for_batch t stop f spins =
  let head = Atomic.get t.head in
  if Atomic.get t.tail > head then begin
    let batch = t.slots.(head mod t.capacity) in
    f batch;
    (* The atomic store returns the slot to the producer for reuse. *)
    Atomic.set t.head (head + 1);
    Consumed
  end
  else if Atomic.get t.closed && Atomic.get t.tail = head then Drained
  else if stop () then Stopped
  else begin
    backoff spins;
    wait_for_batch t stop f (spins + 1)
  end

let consume t ~stop ~f = wait_for_batch t stop f 0
