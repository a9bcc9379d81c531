(* Off-heap int column: a Bigarray.Array1 of native ints, C layout.

   The switches and Trace.Compact keep their slab columns in
   these instead of [int array] for two reasons.  First, the payload lives
   outside the OCaml heap, so the GC never scans it — a multi-million-slot
   trace costs the collector nothing.  Second, Bigarray proxies are
   reference-counted views over one shared allocation: [sub] hands out a
   zero-copy window, which is how parallel sweeps give every domain a slice
   of one shared trace slab instead of a private copy.  Sharing read-only
   columns across domains is safe — immutable-after-build data needs no
   synchronization, and there are no GC headers to race on.

   The [unsafe_*] accessors sit on the per-packet hot paths of the
   switches; indices there are in bounds by the slab invariants the
   switches' [check_invariants] prove.  They are [external]s so that they
   compile inline at the call site even where the build passes [-opaque]. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create ?(fill = 0) len =
  if len < 0 then invalid_arg "Int_col.create: negative length";
  let c = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill c fill;
  c

let init len f =
  if len < 0 then invalid_arg "Int_col.init: negative length";
  let c = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set c i (f i)
  done;
  c

let length (t : t) = Bigarray.Array1.dim t
let get (t : t) i = Bigarray.Array1.get t i
let set (t : t) i x = Bigarray.Array1.set t i x

external unsafe_get : t -> int -> int = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"

let fill (t : t) x = Bigarray.Array1.fill t x

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 then invalid_arg "Int_col.blit: negative length";
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src src_pos len)
      (Bigarray.Array1.sub dst dst_pos len)

(* A fresh column of [len] slots carrying the old contents; the tail is
   [fill]ed.  The slabs only ever grow, so there is no shrink path. *)
let grow (t : t) ~len ~fill:x =
  if len < length t then invalid_arg "Int_col.grow: shrinking";
  let c = create ~fill:x len in
  blit ~src:t ~src_pos:0 ~dst:c ~dst_pos:0 ~len:(length t);
  c

let sub (t : t) ~pos ~len : t = Bigarray.Array1.sub t pos len

let of_array a = init (Array.length a) (Array.unsafe_get a)
let to_array (t : t) = Array.init (length t) (Bigarray.Array1.unsafe_get t)

let equal (a : t) (b : t) =
  length a = length b
  &&
  let n = length a in
  let rec go i =
    i >= n
    || Bigarray.Array1.unsafe_get a i = Bigarray.Array1.unsafe_get b i
       && go (i + 1)
  in
  go 0
