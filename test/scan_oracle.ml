(* Reference O(n) victim selection for every push-out policy, plus
   reference policies built from it.  These are plain left-to-right scans
   through the switches' public accessors, which the production policies'
   passes over the raw columns must agree with, decision for decision
   (test_victim_oracle.ml drives the two in lockstep).  Each scan replaces
   its running best on [key >= best] (or strict [>] where noted) while
   iterating j = 0 .. n-1, which fixes the tie convention; all comparisons
   are explicit integer comparisons. *)

open Smbm_core

(* ----- processing model ----- *)

(* argmax over queues of (virtual length, work, index); the virtual length
   counts the arriving packet as already added to [dest]. *)
let lqd sw ~dest =
  let best = ref 0 and best_len = ref min_int and best_work = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    let len = Proc_switch.queue_length sw j + if j = dest then 1 else 0 in
    let work = Proc_switch.port_work sw j in
    if len > !best_len || (len = !best_len && work >= !best_work) then begin
      best := j;
      best_len := len;
      best_work := work
    end
  done;
  !best

let lwd_tie_key ~tie sw j =
  match (tie : P_lwd.tie) with
  | Largest_work -> Proc_switch.port_work sw j
  | Smallest_work -> -Proc_switch.port_work sw j
  | Longest_queue -> Proc_switch.queue_length sw j

(* argmax over eligible queues of (virtual total work, tie key, index); a
   queue is eligible if a push-out would be legal (non-empty, at least 2
   packets under protection) or if it is the destination (meaning drop). *)
let lwd ~protect_last ~tie sw ~dest =
  let min_len = if protect_last then 2 else 1 in
  let best = ref (-1) and best_work = ref min_int and best_tie = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    if j = dest || Proc_switch.queue_length sw j >= min_len then begin
      let work_total =
        Proc_switch.queue_work sw j
        + if j = dest then Proc_switch.port_work sw dest else 0
      in
      let tk =
        lwd_tie_key ~tie sw j
        + if tie = P_lwd.Longest_queue && j = dest then 1 else 0
      in
      if work_total > !best_work || (work_total = !best_work && tk >= !best_tie)
      then begin
        best := j;
        best_work := work_total;
        best_tie := tk
      end
    end
  done;
  !best

(* argmax over eligible queues of (per-packet work, length, index); no
   virtual add. *)
let bpd ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let best = ref (-1) and best_work = ref min_int and best_len = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    let len = Proc_switch.queue_length sw j in
    if len >= min_len then begin
      let work = Proc_switch.port_work sw j in
      if work > !best_work || (work = !best_work && len >= !best_len) then begin
        best := j;
        best_work := work;
        best_len := len
      end
    end
  done;
  if !best < 0 then None else Some !best

let overflow ~reserve sw j ~dest =
  let len = Proc_switch.queue_length sw j + if j = dest then 1 else 0 in
  max 0 (len - reserve)

(* Sharing with reservation, pool branch: argmax over all queues of (pool
   overflow with the virtual add, port work, index). *)
let rsv_pool ~reserve sw ~dest =
  let best = ref 0 and best_ov = ref min_int and best_work = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    let ov = overflow ~reserve sw j ~dest
    and work = Proc_switch.port_work sw j in
    if ov > !best_ov || (ov = !best_ov && work >= !best_work) then begin
      best := j;
      best_ov := ov;
      best_work := work
    end
  done;
  !best

(* Reclaim branch: argmax over queues other than [dest] with positive
   overflow of (overflow, port work); strict [>] from the seed (0, max_int),
   so full ties keep the smallest index. *)
let rsv_reclaim ~reserve sw ~dest =
  let best = ref (-1) and best_ov = ref 0 and best_work = ref max_int in
  for j = 0 to Proc_switch.n sw - 1 do
    if j <> dest then begin
      let ov = overflow ~reserve sw j ~dest
      and work = Proc_switch.port_work sw j in
      if ov > !best_ov || (ov = !best_ov && work > !best_work) then begin
        best := j;
        best_ov := ov;
        best_work := work
      end
    end
  done;
  !best

let proc_policy name select =
  Policy.make ~name ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else select sw ~dest)

let push_or_drop ~dest victim =
  if victim <> dest then Decision.push_out victim else Decision.drop

let lqd_policy () = proc_policy "LQD" (fun sw ~dest -> push_or_drop ~dest (lqd sw ~dest))

let lwd_policy ?(protect_last = false) ?(tie = P_lwd.Largest_work) () =
  proc_policy "LWD" (fun sw ~dest ->
      push_or_drop ~dest (lwd ~protect_last ~tie sw ~dest))

let bpd_policy ~protect_last () =
  proc_policy "BPD" (fun sw ~dest ->
      match bpd ~protect_last sw with
      | None -> Decision.drop
      | Some victim ->
        let aw = Proc_switch.port_work sw dest
        and vw = Proc_switch.port_work sw victim in
        if aw < vw || (aw = vw && dest <= victim) then
          Decision.push_out victim
        else Decision.drop)

let rsv_policy ~reserve () =
  proc_policy "RSV" (fun sw ~dest ->
      if Proc_switch.queue_length sw dest >= reserve then begin
        let victim = rsv_pool ~reserve sw ~dest in
        if victim <> dest && overflow ~reserve sw victim ~dest > 0 then
          Decision.push_out victim
        else Decision.drop
      end
      else begin
        let victim = rsv_reclaim ~reserve sw ~dest in
        if victim >= 0 then Decision.push_out victim else Decision.drop
      end)

(* ----- value model ----- *)

let min_of sw j = Value_switch.queue_min_value_or sw j ~default:max_int

(* The smallest value anywhere in the buffer, [max_int] when it is empty:
   the minimum over ports of [min_of]. *)
let buffer_min sw =
  let m = ref max_int in
  for j = 0 to Value_switch.n sw - 1 do
    m := min !m (min_of sw j)
  done;
  !m

(* argmin over non-empty queues of (min value, -length, index), replacing
   only on a strictly better key: the port holding the buffer minimum, the
   longest such queue, then the smallest index; -1 when the buffer is
   empty. *)
let min_value_port sw =
  let best = ref (-1) and best_min = ref max_int and best_len = ref 0 in
  for j = 0 to Value_switch.n sw - 1 do
    let len = Value_switch.queue_length sw j in
    let v = min_of sw j in
    if len > 0 && (v < !best_min || (v = !best_min && len > !best_len))
    then begin
      best := j;
      best_min := v;
      best_len := len
    end
  done;
  !best

(* argmax over queues of (virtual length, -min value, index). *)
let vlqd sw ~dest =
  let best = ref 0 and best_len = ref min_int and best_min = ref min_int in
  for j = 0 to Value_switch.n sw - 1 do
    let len = Value_switch.queue_length sw j + if j = dest then 1 else 0 in
    let neg_min = -min_of sw j in
    if len > !best_len || (len = !best_len && neg_min >= !best_min) then begin
      best := j;
      best_len := len;
      best_min := neg_min
    end
  done;
  !best

(* argmin over eligible queues of (min value, -length, -index), replacing
   on [key <= best]; returns the port and its minimum. *)
let mvd ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let best = ref None in
  let best_min = ref max_int and best_len = ref min_int in
  for j = 0 to Value_switch.n sw - 1 do
    let len = Value_switch.queue_length sw j in
    if len >= min_len then begin
      let v = min_of sw j in
      if v < !best_min || (v = !best_min && len >= !best_len) then begin
        best := Some (j, v);
        best_min := v;
        best_len := len
      end
    end
  done;
  !best

let ratio_greater ~len_a ~sum_a ~len_b ~sum_b =
  len_a * len_a * sum_b > len_b * len_b * sum_a

(* argmax over eligible queues of |Q|^2 / sum; equal ratios prefer the
   smaller minimum value, then the larger index. *)
let mrd ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let best = ref None in
  for j = 0 to Value_switch.n sw - 1 do
    if Value_switch.queue_length sw j >= min_len then begin
      let len = Value_switch.queue_length sw j
      and sum = Value_switch.queue_total_value sw j in
      match !best with
      | None -> best := Some (j, len, sum)
      | Some (bj, blen, bsum) ->
        if ratio_greater ~len_a:len ~sum_a:sum ~len_b:blen ~sum_b:bsum then
          best := Some (j, len, sum)
        else if not (ratio_greater ~len_a:blen ~sum_a:bsum ~len_b:len ~sum_b:sum)
        then begin
          if min_of sw j <= min_of sw bj then best := Some (j, len, sum)
        end
    end
  done;
  match !best with Some (j, _, _) -> Some j | None -> None

let value_policy name admit =
  Policy.make ~name ~push_out:true (fun sw ~dest ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else admit sw ~dest ~value)

let vlqd_policy () =
  value_policy "LQD" (fun sw ~dest ~value ->
      let victim = vlqd sw ~dest in
      if victim <> dest then Decision.push_out victim
      else if Value_switch.queue_min_value_or sw dest ~default:max_int < value
      then Decision.push_out dest
      else Decision.drop)

let mvd_policy ~protect_last () =
  value_policy "MVD" (fun sw ~dest:_ ~value ->
      match mvd ~protect_last sw with
      | Some (victim, m) when m < value -> Decision.push_out victim
      | Some _ | None -> Decision.drop)

let mrd_policy ~protect_last () =
  value_policy "MRD" (fun sw ~dest:_ ~value ->
      if buffer_min sw <= value then
        match mrd ~protect_last sw with
        | Some victim -> Decision.push_out victim
        | None -> Decision.drop
      else Decision.drop)
