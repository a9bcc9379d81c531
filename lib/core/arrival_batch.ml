type t = {
  mutable dest : int array;
  mutable value : int array;
  mutable len : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  let capacity = max capacity 1 in
  { dest = Array.make capacity 0; value = Array.make capacity 0; len = 0 }

let length t = t.len
let clear t = t.len <- 0

let grow t =
  let capacity = 2 * Array.length t.dest in
  let extend a = Array.append a (Array.make (capacity - Array.length a) 0) in
  t.dest <- extend t.dest;
  t.value <- extend t.value

let push t ~dest ~value =
  if t.len = Array.length t.dest then grow t;
  t.dest.(t.len) <- dest;
  t.value.(t.len) <- value;
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

let iter t ~f =
  for i = 0 to t.len - 1 do
    f ~dest:(Array.unsafe_get t.dest i) ~value:(Array.unsafe_get t.value i)
  done

let iteri t ~f =
  for i = 0 to t.len - 1 do
    f i ~dest:(Array.unsafe_get t.dest i) ~value:(Array.unsafe_get t.value i)
  done

let reserve t extra =
  while t.len + extra > Array.length t.dest do
    grow t
  done

let push_rev t ~dest ~value ~len =
  if len < 0 || len > Array.length dest || len > Array.length value then
    invalid_arg "Arrival_batch.push_rev: length out of bounds";
  reserve t len;
  let base = t.len + len - 1 in
  for i = 0 to len - 1 do
    t.dest.(base - i) <- dest.(i);
    t.value.(base - i) <- value.(i)
  done;
  t.len <- t.len + len

let append t src =
  reserve t src.len;
  Array.blit src.dest 0 t.dest t.len src.len;
  Array.blit src.value 0 t.value t.len src.len;
  t.len <- t.len + src.len
