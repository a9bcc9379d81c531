type tie = Largest_work | Smallest_work | Longest_queue

(* argmax over queues of (virtual total work, tie key, index); the virtual
   total counts the arriving packet's full work as already added to
   [dest].

   Tie rule: among queues of equal virtual total work, the larger tie key
   wins, and among fully equal keys the larger port index wins (a
   left-to-right scan with replacement on [key >= best] — the test-side
   oracle).  Every comparison below is an explicit integer comparison (no
   polymorphic compare, no tuple allocation). *)

let tie_key ~tie (v : Proc_switch.view) j =
  match tie with
  | Largest_work -> Array.unsafe_get v.view_works j
  | Smallest_work -> -Array.unsafe_get v.view_works j
  | Longest_queue -> Array.unsafe_get v.view_qlen j

(* One pass over the (total work, length) columns, seeded with the
   destination: it is always eligible (selecting it means "drop") and
   competes with the arriving packet's work virtually added.  Another queue
   is eligible when a push-out would be legal ([min_len] packets or more). *)
let select ~protect_last ~tie (v : Proc_switch.view) ~dest =
  let min_len = if protect_last then 2 else 1 in
  let qlen = v.view_qlen and qwork = v.view_qwork in
  let dw = qwork.(dest) + v.view_works.(dest) in
  let best = ref dest
  and bw = ref dw
  and bt = ref (tie_key ~tie v dest + if tie = Longest_queue then 1 else 0) in
  for j = 0 to Array.length qlen - 1 do
    let w = Array.unsafe_get qwork j in
    if w >= !bw && j <> dest && Array.unsafe_get qlen j >= min_len then
      if w > !bw then begin
        best := j;
        bw := w;
        bt := tie_key ~tie v j
      end
      else begin
        let t = tie_key ~tie v j in
        if t > !bt || (t = !bt && j > !best) then begin
          best := j;
          bt := t
        end
      end
  done;
  !best

let select_victim ?(protect_last = false) ?(tie = Largest_work) sw ~dest =
  select ~protect_last ~tie (Proc_switch.view sw) ~dest

let name ~protect_last ~tie =
  let base = if protect_last then "LWD1" else "LWD" in
  match tie with
  | Largest_work -> base
  | Smallest_work -> base ^ "/tie=small-work"
  | Longest_queue -> base ^ "/tie=long-queue"

let make ?(protect_last = false) ?(tie = Largest_work) _config =
  Policy.make ~name:(name ~protect_last ~tie) ~push_out:true
    (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select ~protect_last ~tie (Proc_switch.view sw) ~dest in
        if victim <> dest then Decision.push_out victim else Decision.drop)
