type tie = Largest_work | Smallest_work | Longest_queue

(* argmax over queues of (virtual total work, tie key, index); the virtual
   total counts the arriving packet's full work as already added to
   [dest].

   Tie rule: among queues of equal virtual total work, the larger tie key
   wins, and among fully equal keys the larger port index wins (a
   left-to-right scan with replacement on [key >= best] — the test-side
   oracle).  Every comparison below is an explicit integer comparison (no
   polymorphic compare, no tuple allocation). *)

let tie_key ~tie sw j =
  match tie with
  | Largest_work -> Proc_switch.port_work sw j
  | Smallest_work -> -Proc_switch.port_work sw j
  | Longest_queue -> Proc_switch.queue_length sw j

let key_name ~protect_last ~tie =
  match (protect_last, tie) with
  | false, Largest_work -> "lwd"
  | true, Largest_work -> "lwd:protect"
  | false, Smallest_work -> "lwd:small-work"
  | true, Smallest_work -> "lwd:protect:small-work"
  | false, Longest_queue -> "lwd:long-queue"
  | true, Longest_queue -> "lwd:protect:long-queue"

(* Keyed lexicographic tree, ineligibility encoded as (min_int, 0) — an
   eligible queue's total work is >= 1 > min_int, so ineligible queues rank
   below every eligible one and among themselves by the index tie.  Both
   keys are derived (the tie key depends on [tie]), refreshed when
   the index settles from the live aggregate columns. *)
let index ~protect_last ~tie sw =
  let min_len = if protect_last then 2 else 1 in
  let v = Proc_switch.view sw in
  Proc_switch.find_index sw ~key:(key_name ~protect_last ~tie) (fun ~n ->
      let k1 = Array.make n 0 and k2 = Array.make n 0 in
      Agg_index.create_lex ~n ~k1 ~k2
        ~refresh:(fun j ->
          if v.Proc_switch.view_qlen.(j) >= min_len then begin
            k1.(j) <- v.Proc_switch.view_qwork.(j);
            k2.(j) <-
              (match tie with
              | Largest_work -> v.Proc_switch.view_works.(j)
              | Smallest_work -> -v.Proc_switch.view_works.(j)
              | Longest_queue -> v.Proc_switch.view_qlen.(j))
          end
          else begin
            k1.(j) <- min_int;
            k2.(j) <- 0
          end)
        ())

let select ~protect_last ~tie idx sw ~dest =
  let min_len = if protect_last then 2 else 1 in
  (* The destination is always eligible (selecting it means "drop"), with
     the arriving packet's work virtually added; every other queue competes
     with its actual aggregates via the index. *)
  let dw = Proc_switch.queue_work sw dest + Proc_switch.port_work sw dest in
  let dt =
    tie_key ~tie sw dest + if tie = Longest_queue then 1 else 0
  in
  let c = Agg_index.top_excluding idx dest in
  if c < 0 || Proc_switch.queue_length sw c < min_len then dest
  else begin
    let cw = Proc_switch.queue_work sw c in
    if cw > dw then c
    else if cw < dw then dest
    else begin
      let ct = tie_key ~tie sw c in
      if ct > dt || (ct = dt && c > dest) then c else dest
    end
  end

let select_victim ?(protect_last = false) ?(tie = Largest_work) sw ~dest =
  select ~protect_last ~tie (index ~protect_last ~tie sw) sw ~dest

let name ~protect_last ~tie =
  let base = if protect_last then "LWD1" else "LWD" in
  match tie with
  | Largest_work -> base
  | Smallest_work -> base ^ "/tie=small-work"
  | Longest_queue -> base ^ "/tie=long-queue"

let make ?(protect_last = false) ?(tie = Largest_work) _config =
  let index = Agg_index.per_switch (index ~protect_last ~tie) in
  Policy.make ~name:(name ~protect_last ~tie) ~push_out:true
    (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select ~protect_last ~tie (index sw) sw ~dest in
        if victim <> dest then Decision.push_out victim else Decision.drop)
