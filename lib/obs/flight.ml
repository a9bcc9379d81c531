(* A fixed-capacity event ring: the engines' one event recorder.  One
   unboxed int array holds a six-word row per event (kind tag, slot,
   source id, three payload words), beside an interning table mapping the
   few strings an event can carry (sources, reconfig knobs, health rules)
   to dense ids.  The record fast path writes one row and advances two
   counters — no event record, no option, no closure, one array to
   address — so engines can leave it on at full speed;
   events are boxed back into {!Event.t} only when read out. *)

let width = 6

type t = {
  scope : string;
  cap : int;
  rows : int array;
      (* event [i] at [i * width]: kind tag, slot, source id, a, b, c *)
  mutable next : int; (* = (total mod cap) * width *)
  mutable total : int; (* the ring holds the last [min total cap] *)
  (* interning: id -> string and string -> id.  Ids are stable for the
     life of the ring ([clear] keeps them), so engines intern once. *)
  mutable names : string array;
  mutable n_names : int;
  ids : (string, int) Hashtbl.t;
}

let create ?(scope = "") ~cap () =
  if cap <= 0 then invalid_arg "Flight.create: cap must be positive";
  {
    scope;
    cap;
    rows = Array.make (cap * width) 0;
    next = 0;
    total = 0;
    names = Array.make 8 "";
    n_names = 0;
    ids = Hashtbl.create 8;
  }

let scope t = t.scope
let capacity t = t.cap
let length t = if t.total < t.cap then t.total else t.cap
let total t = t.total
let dropped t = t.total - length t

(* [Hashtbl.find], not [find_opt]: the hit path must not allocate (an
   option cell per [reconfig]/[health] would belie the mli's claim). *)
let intern_raw t s =
  match Hashtbl.find t.ids s with
  | id -> id
  | exception Not_found ->
    let id = t.n_names in
    if id = Array.length t.names then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit t.names 0 bigger 0 id;
      t.names <- bigger
    end;
    t.names.(id) <- s;
    t.n_names <- id + 1;
    Hashtbl.add t.ids s id;
    id

let intern t who =
  intern_raw t (if t.scope = "" then who else t.scope ^ "/" ^ who)

let name_of t id =
  if id < 0 || id >= t.n_names then
    invalid_arg (Printf.sprintf "Flight.name_of: unknown id %d" id)
  else t.names.(id)

let[@inline] record t ~slot ~src ~kind ~a ~b ~c =
  let rows = t.rows and i = t.next in
  Array.unsafe_set rows i kind;
  Array.unsafe_set rows (i + 1) slot;
  Array.unsafe_set rows (i + 2) src;
  Array.unsafe_set rows (i + 3) a;
  Array.unsafe_set rows (i + 4) b;
  Array.unsafe_set rows (i + 5) c;
  let n = i + width in
  t.next <- (if n = Array.length rows then 0 else n);
  t.total <- t.total + 1

let[@inline] arrival t ~slot ~src ~dest =
  record t ~slot ~src ~kind:Event.tag_arrival ~a:dest ~b:0 ~c:0

let[@inline] accept t ~slot ~src ~dest =
  record t ~slot ~src ~kind:Event.tag_accept ~a:dest ~b:0 ~c:0

let[@inline] push_out t ~slot ~src ~victim ~dest ~lost =
  record t ~slot ~src ~kind:Event.tag_push_out ~a:victim ~b:dest ~c:lost

let[@inline] drop t ~slot ~src ~dest ~value =
  record t ~slot ~src ~kind:Event.tag_drop ~a:dest ~b:value ~c:0

let[@inline] transmit t ~slot ~src ~dest ~value ~latency =
  record t ~slot ~src ~kind:Event.tag_transmit ~a:dest ~b:value ~c:latency

let[@inline] transmit_bulk t ~slot ~src ~dest ~count ~value =
  record t ~slot ~src ~kind:Event.tag_transmit_bulk ~a:dest ~b:count ~c:value

let[@inline] flush t ~slot ~src ~count =
  record t ~slot ~src ~kind:Event.tag_flush ~a:count ~b:0 ~c:0

let[@inline] slot_end t ~slot ~src ~occupancy =
  record t ~slot ~src ~kind:Event.tag_slot_end ~a:occupancy ~b:0 ~c:0

let reconfig t ~slot ~src ~what ~target =
  record t ~slot ~src ~kind:Event.tag_reconfig ~a:(intern_raw t what)
    ~b:(intern_raw t target) ~c:0

let health t ~slot ~src ~rule ~tripped ~reason =
  record t ~slot ~src ~kind:Event.tag_health ~a:(intern_raw t rule)
    ~b:(if tripped then 1 else 0)
    ~c:(intern_raw t reason)

(* Event number [n] (counted from the last [clear]) sits at [n mod cap]:
   [next] starts at 0 with [total] and wraps with it. *)
let iter_from ~from f t =
  if from < 0 then invalid_arg "Flight.iter_from: negative cursor";
  let first = dropped t in
  let evicted = first - from in
  if evicted > 0 then begin
    let slot =
      if t.total > 0 then t.rows.((first mod t.cap * width) + 1) else 0
    in
    f (Event.make ~src:t.scope ~slot (Event.Truncated { evicted }))
  end;
  let i = ref 0 and col = ref 0 in
  let word () =
    let k = !col in
    col := k + 1;
    t.rows.(!i + 3 + min k 2)
  in
  let r =
    {
      Event.int = word;
      name = (fun () -> name_of t (word ()));
      flag = (fun () -> word () = 1);
    }
  in
  for n = max from first to t.total - 1 do
    i := n mod t.cap * width;
    col := 0;
    match Event.of_tag t.rows.(!i) r with
    | Some kind ->
      f
        (Event.make
           ~src:(name_of t t.rows.(!i + 2))
           ~slot:t.rows.(!i + 1) kind)
    | None ->
      invalid_arg (Printf.sprintf "Flight: corrupt kind tag %d" t.rows.(!i))
  done

let to_list iter t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let iter f t = iter_from ~from:(dropped t) f t
let events t = to_list iter t
let dump t = to_list (iter_from ~from:0) t

let clear t =
  t.next <- 0;
  t.total <- 0
