open Smbm_core

type report = {
  events : int;
  violations : string list;
  violation_count : int;
  strict_a0_mismatches : int;
  opt_transmitted : int;
  lwd_transmitted : int;
  max_images : int;
}

type state = {
  lwd_sw : Proc_switch.t;
  opt_sw : Proc_switch.t;
  lwd : Proc_switch.t Policy.t;
  opponent : Proc_switch.t Policy.t;
  (* OPT packet id -> transmitted LWD packet id it is charged to. *)
  ineligible : (int, int) Hashtbl.t;
  (* Explicit mappings, OPT id <-> buffered LWD id; each LWD packet carries
     at most one image of each kind. *)
  a0 : (int, int) Hashtbl.t;
  a0_inv : (int, int) Hashtbl.t;
  a1 : (int, int) Hashtbl.t;
  a1_inv : (int, int) Hashtbl.t;
  (* Buffered LWD id -> OPT ids already transmitted this phase and waiting
     for their image to complete (it must, within the same phase). *)
  pending : (int, int list) Hashtbl.t;
  (* Transmitted LWD id -> number of OPT packets charged to it. *)
  absorbed : (int, int) Hashtbl.t;
  lwd_done : (int, unit) Hashtbl.t;  (* transmitted LWD ids *)
  mutable events : int;
  mutable violations : string list; (* newest first *)
  mutable violation_count : int;
  mutable strict_a0_mismatches : int;
  mutable opt_transmitted : int;
  mutable lwd_transmitted : int;
  mutable max_images : int;
}

let violate st fmt =
  Printf.ksprintf
    (fun msg ->
      st.violation_count <- st.violation_count + 1;
      if st.violation_count <= 10 then st.violations <- msg :: st.violations)
    fmt

(* Packet ids of queue [i] with their physical latencies (prefix sums of
   residual work: the number of transmission phases until each one
   completes), head of line first. *)
let with_latencies sw i =
  let acc = ref [] and lat = ref 0 in
  Proc_switch.iter_port sw i (fun ~id ~residual ~value:_ ~arrival:_ ->
      lat := !lat + residual;
      acc := (id, !lat) :: !acc);
  List.rev !acc

let lwd_queue_packets st i = with_latencies st.lwd_sw i

let opt_eligible_packets st i =
  List.filter
    (fun (id, _) -> not (Hashtbl.mem st.ineligible id))
    (with_latencies st.opt_sw i)

(* Id of the head-of-line (or tail) packet of queue [i]; the queue must be
   non-empty. *)
let head_id sw i =
  match with_latencies sw i with
  | (id, _) :: _ -> id
  | [] -> invalid_arg "Mapping_certifier: empty queue"

let tail_id sw i =
  match List.rev (with_latencies sw i) with
  | (id, _) :: _ -> id
  | [] -> invalid_arg "Mapping_certifier: empty queue"

let lwd_all_packets st =
  let acc = ref [] in
  for i = 0 to Proc_switch.n st.lwd_sw - 1 do
    acc := lwd_queue_packets st i @ !acc
  done;
  !acc

let lwd_latency_of st lwd_id =
  List.find_map
    (fun (q_id, lat) -> if q_id = lwd_id then Some lat else None)
    (lwd_all_packets st)

let image_of st opt_id =
  match Hashtbl.find_opt st.a0 opt_id with
  | Some q -> Some (`A0, q)
  | None -> (
    match Hashtbl.find_opt st.a1 opt_id with
    | Some q -> Some (`A1, q)
    | None -> None)

let clear_mapping st opt_id =
  (match Hashtbl.find_opt st.a0 opt_id with
  | Some q ->
    Hashtbl.remove st.a0 opt_id;
    Hashtbl.remove st.a0_inv q
  | None -> ());
  match Hashtbl.find_opt st.a1 opt_id with
  | Some q ->
    Hashtbl.remove st.a1 opt_id;
    Hashtbl.remove st.a1_inv q
  | None -> ()

(* Step A1 (also A2's reassignment): bind an eligible OPT packet to some LWD
   buffered packet carrying no A1 image, latency-dominated; take the
   largest-latency feasible candidate, leaving low-latency packets free for
   tighter future constraints. *)
let assign_a1 st ~context p_id ~lat_p =
  let best = ref None in
  List.iter
    (fun (q_id, lat_q) ->
      if (not (Hashtbl.mem st.a1_inv q_id)) && lat_q <= lat_p then
        match !best with
        | Some (_, best_lat) when best_lat >= lat_q -> ()
        | Some _ | None -> best := Some (q_id, lat_q))
    (lwd_all_packets st);
  match !best with
  | Some (q_id, _) ->
    Hashtbl.replace st.a1 p_id q_id;
    Hashtbl.replace st.a1_inv q_id p_id
  | None ->
    violate st "%s: no A1 target for OPT packet #%d (lat %d)" context p_id
      lat_p

(* Charge one transmitted-or-doomed OPT packet to the transmitted LWD packet
   [q_id]. *)
let charge st q_id opt_id =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt st.absorbed q_id) in
  Hashtbl.replace st.absorbed q_id n;
  if n > st.max_images then st.max_images <- n;
  if n > 2 then
    violate st "T0: LWD packet #%d absorbed %d OPT packets" q_id n;
  Hashtbl.replace st.ineligible opt_id q_id

(* The paper's literal Lemma 8 positional invariant, tracked separately. *)
let count_strict_mismatches st =
  for i = 0 to Proc_switch.n st.opt_sw - 1 do
    let lwd = Array.of_list (lwd_queue_packets st i) in
    List.iteri
      (fun l (_, lat_p) ->
        if l < Array.length lwd then begin
          let _, lat_q = lwd.(l) in
          if lat_p < lat_q then
            st.strict_a0_mismatches <- st.strict_a0_mismatches + 1
        end)
      (opt_eligible_packets st i)
  done

(* Repaired-scheme invariants: every eligible OPT packet carries exactly one
   explicit image with a live, latency-dominated target. *)
let check st ~context ~latencies =
  for i = 0 to Proc_switch.n st.opt_sw - 1 do
    List.iter
      (fun (p_id, lat_p) ->
        match image_of st p_id with
        | None ->
          violate st "%s: eligible OPT packet #%d (Q%d) unmapped" context p_id
            i
        | Some (kind, q_id) -> (
          let kind = match kind with `A0 -> "A0" | `A1 -> "A1" in
          match lwd_latency_of st q_id with
          | None ->
            violate st "%s: %s target #%d of OPT #%d left the buffer" context
              kind q_id p_id
          | Some lat_q ->
            if latencies && lat_p < lat_q then
              violate st "%s: %s latency violated: OPT #%d lat %d < LWD #%d lat %d"
                context kind p_id lat_p q_id lat_q))
      (opt_eligible_packets st i)
  done

(* One processing cycle for a non-empty port of one switch (speedup is 1);
   returns the id of the transmitted packet — necessarily the head of
   line — if any. *)
let serve sw i =
  let hol = head_id sw i in
  if
    Proc_switch.serve_port sw i ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ ->
        ())
    > 0
  then Some hol
  else None

let run ~config ~opponent ~workload ~slots ?(check_every_event = true) () =
  if config.Proc_config.speedup <> 1 then
    invalid_arg "Mapping_certifier.run: Theorem 7's setting has speedup 1";
  let st =
    {
      lwd_sw = Proc_switch.create config;
      opt_sw = Proc_switch.create config;
      lwd = P_lwd.make config;
      opponent;
      ineligible = Hashtbl.create 1024;
      a0 = Hashtbl.create 256;
      a0_inv = Hashtbl.create 256;
      a1 = Hashtbl.create 256;
      a1_inv = Hashtbl.create 256;
      pending = Hashtbl.create 64;
      absorbed = Hashtbl.create 1024;
      lwd_done = Hashtbl.create 1024;
      events = 0;
      violations = [];
      violation_count = 0;
      strict_a0_mismatches = 0;
      opt_transmitted = 0;
      lwd_transmitted = 0;
      max_images = 0;
    }
  in
  (* The paper's induction is per mapping change, so the literal Lemma 8
     counter runs at every latency-coherent event (arrivals and phase
     boundaries), not only at slot ends. *)
  let event ?(latencies = true) context =
    st.events <- st.events + 1;
    if check_every_event then check st ~context ~latencies;
    if latencies then count_strict_mismatches st
  in
  (* Step T0: LWD transmitted [q]. *)
  let on_lwd_transmit q_id =
    st.lwd_transmitted <- st.lwd_transmitted + 1;
    Hashtbl.replace st.lwd_done q_id ();
    (match Hashtbl.find_opt st.a0_inv q_id with
    | Some opt_id ->
      Hashtbl.remove st.a0_inv q_id;
      Hashtbl.remove st.a0 opt_id;
      charge st q_id opt_id
    | None -> ());
    (match Hashtbl.find_opt st.a1_inv q_id with
    | Some opt_id ->
      Hashtbl.remove st.a1_inv q_id;
      Hashtbl.remove st.a1 opt_id;
      charge st q_id opt_id
    | None -> ());
    match Hashtbl.find_opt st.pending q_id with
    | Some opt_ids ->
      Hashtbl.remove st.pending q_id;
      List.iter (charge st q_id) opt_ids
    | None -> ()
  in
  (* The opponent transmitted [p]. *)
  let on_opt_transmit p_id =
    st.opt_transmitted <- st.opt_transmitted + 1;
    if Hashtbl.mem st.ineligible p_id then Hashtbl.remove st.ineligible p_id
    else begin
      match image_of st p_id with
      | None ->
        violate st
          "transmission: eligible OPT packet #%d transmitted while unmapped"
          p_id
      | Some (_, q_id) ->
        clear_mapping st p_id;
        if Hashtbl.mem st.lwd_done q_id then charge st q_id p_id
        else
          (* The image's latency is at most [p]'s, so it must complete
             before this transmission phase ends; defer the charge. *)
          Hashtbl.replace st.pending q_id
            (p_id :: Option.value ~default:[] (Hashtbl.find_opt st.pending q_id))
    end
  in
  let handle_arrival ~dest ~value:_ =
    (* LWD first ("q can be p" in the paper's step A0). *)
    (let d = Policy.admit st.lwd st.lwd_sw ~dest ~value:1 in
     if Decision.is_accept d then begin
      Proc_switch.accept st.lwd_sw ~dest ~value:1;
      let q_id = tail_id st.lwd_sw dest in
      (* Repaired step A3 / proof case (4): the newly covered OPT packet
         trades its A1 assignment for the positional pairing — but only
         when the latency constraint actually holds (the uncovered gap:
         after a push-out the opponent can be a cycle ahead, and the fresh
         positional pair is invalid; such packets keep their A1). *)
      let l = Proc_switch.queue_length st.lwd_sw dest in
      (match List.nth_opt (opt_eligible_packets st dest) (l - 1) with
      | Some (p_id, lat_p) when not (Hashtbl.mem st.a0 p_id) ->
        let lat_q =
          Option.value ~default:max_int (lwd_latency_of st q_id)
        in
        if lat_p >= lat_q && not (Hashtbl.mem st.a0_inv q_id) then begin
          clear_mapping st p_id;
          Hashtbl.replace st.a0 p_id q_id;
          Hashtbl.replace st.a0_inv q_id p_id
        end
      | Some _ | None -> ())
    end
    else if Decision.is_push_out d then begin
      let victim = Decision.victim d in
      let p' = tail_id st.lwd_sw victim in
      ignore (Proc_switch.push_out st.lwd_sw ~victim : int);
      (* Step A2: collect and reassign the OPT packets mapped to p'. *)
      let orphans = ref [] in
      (match Hashtbl.find_opt st.a0_inv p' with
      | Some opt_id ->
        Hashtbl.remove st.a0_inv p';
        Hashtbl.remove st.a0 opt_id;
        orphans := opt_id :: !orphans
      | None -> ());
      (match Hashtbl.find_opt st.a1_inv p' with
      | Some opt_id ->
        Hashtbl.remove st.a1_inv p';
        Hashtbl.remove st.a1 opt_id;
        orphans := opt_id :: !orphans
      | None -> ());
      Proc_switch.accept st.lwd_sw ~dest ~value:1;
      List.iter
        (fun opt_id ->
          for i = 0 to Proc_switch.n st.opt_sw - 1 do
            List.iter
              (fun (p_id, lat_p) ->
                if p_id = opt_id then assign_a1 st ~context:"A2" p_id ~lat_p)
              (opt_eligible_packets st i)
          done)
        !orphans
    end);
    (* Opponent side (non-push-out). *)
    (let d = Policy.admit st.opponent st.opt_sw ~dest ~value:1 in
     if Decision.is_accept d then begin
      Proc_switch.accept st.opt_sw ~dest ~value:1;
      let p_id = tail_id st.opt_sw dest in
      let eligible = opt_eligible_packets st dest in
      let l = List.length eligible in
      let lat_p = match List.nth_opt eligible (l - 1) with
        | Some (_, lat) -> lat
        | None -> assert false
      in
      (* Step A0 at acceptance: positional partner, if the constraint and
         availability allow; A1 otherwise. *)
      let partner = List.nth_opt (lwd_queue_packets st dest) (l - 1) in
      (match partner with
      | Some (q_id, lat_q)
        when lat_p >= lat_q && not (Hashtbl.mem st.a0_inv q_id) ->
        Hashtbl.replace st.a0 p_id q_id;
        Hashtbl.replace st.a0_inv q_id p_id
      | Some _ | None -> assign_a1 st ~context:"A1(arrival)" p_id ~lat_p)
    end
    else if Decision.is_push_out d then
      violate st "opponent pushed out: not a valid Theorem 7 opponent");
    event "arrival"
  in
  let transmission_phase () =
    let opt_served = Array.make (Proc_config.n config) false in
    for i = 0 to Proc_config.n config - 1 do
      if Proc_switch.queue_length st.lwd_sw i > 0 then begin
        (match serve st.lwd_sw i with
        | Some q -> on_lwd_transmit q
        | None -> ());
        if Proc_switch.queue_length st.opt_sw i > 0 then begin
          opt_served.(i) <- true;
          match serve st.opt_sw i with
          | Some p -> on_opt_transmit p
          | None -> ()
        end;
        event ~latencies:false "transmission(lwd port)"
      end
    done;
    for i = 0 to Proc_config.n config - 1 do
      if
        (not opt_served.(i))
        && Proc_switch.queue_length st.opt_sw i > 0
      then begin
        (match serve st.opt_sw i with
        | Some p -> on_opt_transmit p
        | None -> ());
        event ~latencies:false "transmission(opt port)"
      end
    done;
    (* Deferred charges must have resolved within the phase. *)
    Hashtbl.iter
      (fun q_id opt_ids ->
        violate st
          "end of phase: OPT packet(s) %s transmitted but their image #%d \
           did not complete in the same phase"
          (String.concat "," (List.map string_of_int opt_ids))
          q_id)
      st.pending;
    Hashtbl.reset st.pending;
    event "end of transmission phase"
  in
  let batch = Arrival_batch.create () in
  for _ = 1 to slots do
    Smbm_traffic.Workload.next_into workload batch;
    Arrival_batch.iter batch ~f:handle_arrival;
    transmission_phase ();
    Proc_switch.advance_slot st.lwd_sw;
    Proc_switch.advance_slot st.opt_sw
  done;
  {
    events = st.events;
    violations = List.rev st.violations;
    violation_count = st.violation_count;
    strict_a0_mismatches = st.strict_a0_mismatches;
    opt_transmitted = st.opt_transmitted;
    lwd_transmitted = st.lwd_transmitted;
    max_images = st.max_images;
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "events=%d violations=%d strict_a0_mismatches=%d opt=%d lwd=%d \
     max_images=%d"
    r.events r.violation_count r.strict_a0_mismatches r.opt_transmitted
    r.lwd_transmitted r.max_images;
  List.iter (fun v -> Format.fprintf ppf "@.  %s" v) r.violations
