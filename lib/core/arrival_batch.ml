type t = {
  mutable dest : int array;
  mutable value : int array;
  mutable work : int array;
  mutable len : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  let capacity = max capacity 1 in
  {
    dest = Array.make capacity 0;
    value = Array.make capacity 0;
    work = Array.make capacity 0;
    len = 0;
  }

let length t = t.len
let is_empty t = t.len = 0
let clear t = t.len <- 0

let grow t =
  let capacity = 2 * Array.length t.dest in
  let extend a = Array.append a (Array.make (capacity - Array.length a) 0) in
  t.dest <- extend t.dest;
  t.value <- extend t.value;
  t.work <- extend t.work

let push ?(work = 0) t ~dest ~value =
  if t.len = Array.length t.dest then grow t;
  t.dest.(t.len) <- dest;
  t.value.(t.len) <- value;
  t.work.(t.len) <- work;
  t.len <- t.len + 1

let push_arrival t (a : Arrival.t) = push t ~dest:a.dest ~value:a.value

let check_index t i what =
  if i < 0 || i >= t.len then invalid_arg ("Arrival_batch." ^ what ^ ": out of bounds")

let dest t i =
  check_index t i "dest";
  t.dest.(i)

let value t i =
  check_index t i "value";
  t.value.(i)

let work t i =
  check_index t i "work";
  t.work.(i)

let set_work t i w =
  check_index t i "set_work";
  t.work.(i) <- w

let set t i ~dest ~value =
  check_index t i "set";
  t.dest.(i) <- dest;
  t.value.(i) <- value

let iter t ~f =
  for i = 0 to t.len - 1 do
    f ~dest:(Array.unsafe_get t.dest i) ~value:(Array.unsafe_get t.value i)
  done

let iteri t ~f =
  for i = 0 to t.len - 1 do
    f i ~dest:(Array.unsafe_get t.dest i) ~value:(Array.unsafe_get t.value i)
  done

(* Reverse the tail [from ..] in place.  Generators that accumulate a slot by
   appending (the struct-of-arrays analogue of prepending onto a list and
   returning it unreversed) use this to restore the historical arrival order
   without allocating. *)
let reverse_from t ~from =
  if from < 0 || from > t.len then
    invalid_arg "Arrival_batch.reverse_from: out of bounds";
  let swap (a : int array) i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let i = ref from and j = ref (t.len - 1) in
  while !i < !j do
    swap t.dest !i !j;
    swap t.value !i !j;
    swap t.work !i !j;
    incr i;
    decr j
  done

let to_list t =
  let rec build i acc =
    if i < 0 then acc
    else
      build (i - 1) ({ Arrival.dest = t.dest.(i); value = t.value.(i) } :: acc)
  in
  build (t.len - 1) []

let of_list arrivals =
  let t = create ~capacity:(max default_capacity (List.length arrivals)) () in
  List.iter (push_arrival t) arrivals;
  t
