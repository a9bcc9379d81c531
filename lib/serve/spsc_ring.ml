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
  lock : Mutex.t;  (* guards parking only, never the hand-off itself *)
  data : Condition.t;  (* a parked consumer waits here *)
  parked : int Atomic.t;  (* instant (ns) the consumer parked, or -1 *)
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
    lock = Mutex.create ();
    data = Condition.create ();
    parked = Atomic.make (-1);
  }

let capacity t = t.capacity
let length t = Atomic.get t.tail - Atomic.get t.head
let shed_slots t = Atomic.get t.shed_slots
let shed_packets t = Atomic.get t.shed_packets
let max_occupancy t = t.max_occupancy

type push_result = Pushed | Shed | Aborted

(* Waiting on a full ring (producer, under [`Block]): spin 64 turns with
   [Domain.cpu_relax] to catch the consumer in mid-hand-off, then sleep
   200 µs at a time.  A full ring is a whole ring of queued work for the
   consumer, so a live consumer that takes longer to drain it than one
   sleep lasts (about 4 µs a slot at 64 slots) never runs dry. *)
let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002

(* Waiting on an empty ring (consumer): park.  The consumer blocks on a
   condition variable and takes no CPU until the producer wakes it: once
   half the ring is filled, or at the first publication after it has been
   parked [wake_window_ns], so a live producer wakes it once per half ring
   and a slow or paced producer's slots wait at most about one window.
   An empty ring holds no work at all, and the producer is the side that
   is short of time: a consumer that spins beside it takes its cycles
   when the two domains share a core, and one that sleeps on a timer
   either lets the ring fill and block the producer or wakes for nothing
   (EXPERIMENTS.md, "Ring hand-off by parking"). *)
let wake_window_ns = 200_000

let wake ~capacity ~ready ~parked_ns =
  2 * ready >= capacity || parked_ns >= wake_window_ns

(* Park unless the ring has been filled or closed meanwhile.  The parked
   instant is stored before the ring is read again, and the producer
   moves [tail] before it reads [parked]: so either the consumer sees the
   new batch, or the producer sees it parked and signals under the lock
   the consumer holds until it waits.  A single wait: the caller
   re-examines the ring on every return, spurious or not. *)
let park t =
  Mutex.lock t.lock;
  Atomic.set t.parked (Clock.now_ns ());
  if Atomic.get t.tail = Atomic.get t.head && not (Atomic.get t.closed) then
    Condition.wait t.data t.lock;
  Atomic.set t.parked (-1);
  Mutex.unlock t.lock

let signal t =
  Mutex.lock t.lock;
  Condition.signal t.data;
  Mutex.unlock t.lock

(* The producer has just published, leaving [occ] batches in the ring.
   Taking [parked] back to -1 before signalling means a parked consumer
   is signalled once, however many batches are published before it
   runs. *)
let nudge t occ =
  let parked = Atomic.get t.parked in
  if
    parked >= 0
    && wake ~capacity:t.capacity ~ready:occ
         ~parked_ns:(Clock.now_ns () - parked)
    && Atomic.compare_and_set t.parked parked (-1)
  then signal t

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
  nudge t occ;
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

let close t =
  Atomic.set t.closed true;
  signal t

let abort t = Atomic.set t.aborted true

type pop_result = Consumed | Drained | Stopped

let rec wait_for_batch t stop f =
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
    park t;
    wait_for_batch t stop f
  end

let consume t ~stop ~f = wait_for_batch t stop f
