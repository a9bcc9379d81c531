(* Growable circular buffer of unboxed ints.

   Capacity is always a power of two so position arithmetic is a mask, not a
   division; the buffer doubles when full and never shrinks, so a warmed ring
   performs every operation allocation-free.  Front/back access makes it a
   deque: the processing switch uses [push_back]/[pop_front] for FIFO
   service and [pop_back] for tail eviction. *)

type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create ?(capacity = 8) () =
  let cap = ref 2 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  { buf = Array.make !cap 0; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.buf

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) 0 in
  (* Re-linearize: logical order front .. back becomes physical 0 .. len-1. *)
  let tail = cap - t.head in
  Array.blit t.buf t.head buf 0 (min t.len tail);
  if t.len > tail then Array.blit t.buf 0 buf tail (t.len - tail);
  t.buf <- buf;
  t.head <- 0

(* Masked positions are in bounds by construction (capacity is a power of
   two and the mask is capacity - 1), so the accesses below skip the bounds
   check — these are the per-packet ops of the processing switch. *)

let push_back t x =
  if t.len = Array.length t.buf then grow t;
  Array.unsafe_set t.buf ((t.head + t.len) land (Array.length t.buf - 1)) x;
  t.len <- t.len + 1

let peek_front t =
  if t.len = 0 then invalid_arg "Int_ring.peek_front: empty";
  Array.unsafe_get t.buf t.head

let pop_front t =
  if t.len = 0 then invalid_arg "Int_ring.pop_front: empty";
  let x = Array.unsafe_get t.buf t.head in
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let pop_back t =
  if t.len = 0 then invalid_arg "Int_ring.pop_back: empty";
  t.len <- t.len - 1;
  Array.unsafe_get t.buf ((t.head + t.len) land (Array.length t.buf - 1))

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_ring.get: out of range";
  Array.unsafe_get t.buf ((t.head + i) land (Array.length t.buf - 1))

let clear t =
  t.head <- 0;
  t.len <- 0

let iter f t =
  let mask = Array.length t.buf - 1 in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) land mask)
  done
