(* The combined work + value model as it was first written — its own
   switch of boxed packet records, its own engine and seven policies that
   rescan all n queues on every arrival — kept as the lockstep oracle of
   the valued Proc_switch, Engine.Proc and Policies.hybrid
   (test_hybrid.ml drives the two side by side).

   The queues are plain lists (head of line first), deliberately naive.
   Every scan replaces its running best on [key >= best] (largest index
   wins ties) or on a strict comparison (smallest index wins ties), as
   noted; all comparisons are explicit integer comparisons. *)

open Smbm_core
open Smbm_sim
module Flight = Smbm_obs.Flight

(* ----- switch ----- *)

type packet = {
  id : int;
  dest : int;
  work : int;
  mutable residual : int;
  value : int;
  arrival : int;
}

type queue = {
  port_work : int;
  mutable packets : packet list;  (* head of line first *)
  mutable total_work : int;
  mutable total_value : int;
}

type t = {
  config : Proc_config.t;
  queues : queue array;
  mutable buffer : int;
  mutable occupancy : int;
  mutable next_id : int;
  mutable now : int;
}

let create (config : Proc_config.t) =
  {
    config;
    queues =
      Array.init (Proc_config.n config) (fun i ->
          {
            port_work = Proc_config.work config i;
            packets = [];
            total_work = 0;
            total_value = 0;
          });
    buffer = config.buffer;
    occupancy = 0;
    next_id = 0;
    now = 0;
  }

let n t = Array.length t.queues
let now t = t.now
let advance_slot t = t.now <- t.now + 1
let occupancy t = t.occupancy
let is_full t = t.occupancy >= t.buffer

let set_buffer t b =
  if b < 1 || b < t.occupancy then invalid_arg "Hybrid_oracle.set_buffer";
  t.buffer <- b

let queue_length t i = List.length t.queues.(i).packets
let queue_work t i = t.queues.(i).total_work
let queue_value t i = t.queues.(i).total_value
let port_work t i = t.queues.(i).port_work
let queue_packets t i = t.queues.(i).packets

let tail_value t i =
  match List.rev t.queues.(i).packets with [] -> None | p :: _ -> Some p.value

let accept t ~dest ~value =
  if is_full t then invalid_arg "Hybrid_oracle.accept: buffer full";
  if value < 1 || value > t.config.max_value then
    invalid_arg "Hybrid_oracle.accept: value out of range";
  let q = t.queues.(dest) in
  let p =
    {
      id = t.next_id;
      dest;
      work = q.port_work;
      residual = q.port_work;
      value;
      arrival = t.now;
    }
  in
  t.next_id <- t.next_id + 1;
  q.packets <- q.packets @ [ p ];
  q.total_work <- q.total_work + p.residual;
  q.total_value <- q.total_value + p.value;
  t.occupancy <- t.occupancy + 1

let push_out t ~victim =
  let q = t.queues.(victim) in
  match List.rev q.packets with
  | [] -> invalid_arg "Hybrid_oracle.push_out: victim queue empty"
  | p :: rest_rev ->
    q.packets <- List.rev rest_rev;
    q.total_work <- q.total_work - p.residual;
    q.total_value <- q.total_value - p.value;
    t.occupancy <- t.occupancy - 1;
    p

let transmit_phase t ~on_transmit =
  let cycles = t.config.speedup in
  let transmitted = ref 0 in
  Array.iter
    (fun q ->
      let budget = ref cycles in
      let rec serve () =
        match q.packets with
        | hol :: rest when !budget > 0 ->
          let served = min !budget hol.residual in
          hol.residual <- hol.residual - served;
          q.total_work <- q.total_work - served;
          budget := !budget - served;
          if hol.residual = 0 then begin
            q.packets <- rest;
            q.total_value <- q.total_value - hol.value;
            t.occupancy <- t.occupancy - 1;
            incr transmitted;
            on_transmit hol;
            serve ()
          end
        | _ -> ()
      in
      serve ())
    t.queues;
  !transmitted

let flush t =
  let dropped = t.occupancy in
  Array.iter
    (fun q ->
      q.packets <- [];
      q.total_work <- 0;
      q.total_value <- 0)
    t.queues;
  t.occupancy <- 0;
  dropped

(* ----- policies: full scans ----- *)

type policy = {
  name : string;
  admit : t -> dest:int -> value:int -> Decision.t;
}

let greedy_accept sw = if is_full sw then None else Some Decision.accept

let greedy =
  {
    name = "Greedy";
    admit =
      (fun sw ~dest:_ ~value:_ ->
        match greedy_accept sw with Some d -> d | None -> Decision.drop);
  }

let nest (config : Proc_config.t) =
  let n = Proc_config.n config and b = config.buffer in
  {
    name = "NEST";
    admit =
      (fun sw ~dest ~value:_ ->
        if is_full sw then Decision.drop
        else if queue_length sw dest * n < b then Decision.accept
        else Decision.drop);
  }

(* argmax of (key j, port work, index) with the destination's key
   virtually raised; [key >= best] keeps the largest index. *)
let argmax_virtual sw ~key =
  let best = ref 0 and best_key = ref min_int and best_work = ref min_int in
  for j = 0 to n sw - 1 do
    let k = key j and w = port_work sw j in
    if k > !best_key || (k = !best_key && w >= !best_work) then begin
      best := j;
      best_key := k;
      best_work := w
    end
  done;
  !best

let push_or_drop ~dest victim =
  if victim <> dest then Decision.push_out victim else Decision.drop

let lqd =
  {
    name = "LQD";
    admit =
      (fun sw ~dest ~value:_ ->
        match greedy_accept sw with
        | Some d -> d
        | None ->
          push_or_drop ~dest
            (argmax_virtual sw ~key:(fun j ->
                 queue_length sw j + if j = dest then 1 else 0)));
  }

let lwd =
  {
    name = "LWD";
    admit =
      (fun sw ~dest ~value:_ ->
        match greedy_accept sw with
        | Some d -> d
        | None ->
          push_or_drop ~dest
            (argmax_virtual sw ~key:(fun j ->
                 queue_work sw j + if j = dest then port_work sw dest else 0)));
  }

(* The cheapest tail; a strict [<] keeps the smallest index. *)
let mvd =
  {
    name = "MVD";
    admit =
      (fun sw ~dest:_ ~value ->
        match greedy_accept sw with
        | Some d -> d
        | None -> (
          let best = ref None in
          for j = 0 to n sw - 1 do
            match (tail_value sw j, !best) with
            | Some v, Some (_, bv) when v < bv -> best := Some (j, v)
            | Some v, None -> best := Some (j, v)
            | _ -> ()
          done;
          match !best with
          | Some (victim, v) when v < value -> Decision.push_out victim
          | Some _ | None -> Decision.drop));
  }

(* Largest W_j / V_j, the destination counted virtually, compared as
   W_a * V_b > W_b * V_a; a strict [>] keeps the smallest index. *)
let wvd =
  {
    name = "WVD";
    admit =
      (fun sw ~dest ~value ->
        match greedy_accept sw with
        | Some d -> d
        | None -> (
          let best = ref None in
          for j = 0 to n sw - 1 do
            let w =
              queue_work sw j + if j = dest then port_work sw dest else 0
            and v = queue_value sw j + if j = dest then value else 0 in
            if w > 0 then
              match !best with
              | Some (_, bw, bv) when w * bv <= bw * v -> ()
              | Some _ | None -> best := Some (j, w, v)
          done;
          match !best with
          | Some (victim, _, _) -> push_or_drop ~dest victim
          | None -> Decision.drop));
  }

(* The tail of smallest density v / w, compared as v_a * w_b < v_b * w_a;
   a strict [<] keeps the smallest index.  Evicts only for a strictly
   denser arrival. *)
let dpk =
  {
    name = "DPK";
    admit =
      (fun sw ~dest ~value ->
        match greedy_accept sw with
        | Some d -> d
        | None -> (
          let best = ref None in
          for j = 0 to n sw - 1 do
            match tail_value sw j with
            | Some v -> (
              let w = port_work sw j in
              match !best with
              | Some (_, bv, bw) when bv * w <= v * bw -> ()
              | Some _ | None -> best := Some (j, v, w))
            | None -> ()
          done;
          match !best with
          | Some (victim, bv, bw) when value * bw > bv * port_work sw dest ->
            Decision.push_out victim
          | Some _ | None -> Decision.drop));
  }

let all config = [ greedy; nest config; lqd; lwd; mvd; wvd; dpk ]

(* ----- engine ----- *)

let engine ?events config policy =
  let name = policy.name in
  let sw = create config in
  let metrics = Metrics.create () in
  let ports = Port_stats.create ~n:(Proc_config.n config) in
  let src = match events with Some f -> Flight.intern f name | None -> 0 in
  let record f = match events with None -> () | Some r -> f r in
  let on_transmit p =
    let latency = sw.now - p.arrival in
    Metrics.record_transmit metrics ~value:p.value ~latency;
    Port_stats.record ports ~port:p.dest ~value:p.value;
    record (fun f ->
        Flight.transmit f ~slot:sw.now ~src ~dest:p.dest ~value:p.value
          ~latency)
  in
  let arrive_dv ~dest ~value =
    Metrics.record_arrival metrics;
    record (fun f -> Flight.arrival f ~slot:sw.now ~src ~dest);
    let admit () =
      accept sw ~dest ~value;
      Metrics.record_accept metrics;
      record (fun f -> Flight.accept f ~slot:sw.now ~src ~dest)
    in
    match Decision_view.of_decision (policy.admit sw ~dest ~value) with
    | Decision_view.Accept -> admit ()
    | Decision_view.Push_out victim ->
      if not (is_full sw) then invalid_arg (name ^ ": push-out with free space");
      let evicted = push_out sw ~victim in
      Metrics.record_push_out metrics;
      record (fun f ->
          Flight.push_out f ~slot:sw.now ~src ~victim ~dest ~lost:evicted.value);
      admit ()
    | Decision_view.Drop ->
      Metrics.record_drop metrics;
      record (fun f -> Flight.drop f ~slot:sw.now ~src ~dest ~value)
  in
  let inst : Instance.t =
    {
      name;
      arrive_dv;
      arrive_batch = None;
      transmit = (fun () -> ignore (transmit_phase sw ~on_transmit : int));
      end_slot =
        (fun () ->
          Metrics.record_occupancy metrics sw.occupancy;
          record (fun f ->
              Flight.slot_end f ~slot:sw.now ~src ~occupancy:sw.occupancy);
          advance_slot sw);
      flush =
        (fun () ->
          let count = flush sw in
          Metrics.record_flush metrics count;
          record (fun f -> Flight.flush f ~slot:sw.now ~src ~count);
          Metrics.check_conservation metrics);
      occupancy = (fun () -> sw.occupancy);
      metrics;
      ports = Some ports;
      check =
        (fun () ->
          Metrics.check_conservation metrics;
          if Metrics.in_buffer metrics <> sw.occupancy then
            invalid_arg (name ^ ": metrics out of sync"));
    }
  in
  (inst, sw)
