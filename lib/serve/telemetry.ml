module Registry = Smbm_obs.Registry
module Health = Smbm_obs.Health
module Json = Smbm_obs.Json

type stage = { count : int; wall : float; wall_mean : float; wall_max : float }

type window_stats = {
  w_span : float;
  slots_per_sec : float;
  arrivals_per_sec : float;
  accepted_per_sec : float;
  drops_per_sec : float;
  shed_slots_per_sec : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

type view = {
  at : float;
  slot : int;
  uptime : float;
  policy : string;
  buffer : int;
  ring_occupancy : int;
  ring_capacity : int;
  ring_max : int;
  shed_slots : int;
  shed_packets : int;
  window : window_stats;
  engine : (string * Registry.sample) list;
  server : (string * Registry.sample) list;
  spans : (string * stage) list;
  health : (string * Health.view_state) list;
  degraded : bool;
}

(* ----- stage aggregates ----- *)

(* The slot loop times its stages into server-registry histograms named
   [stage/<name>_us]; this lifts them into {!stage} profiles in seconds for
   the [spans] answer. *)
let stage_aggregates server =
  List.filter_map
    (fun (name, sample) ->
      match sample with
      | Registry.Summary { n; mean; max; _ }
        when String.length name > 6 && String.sub name 0 6 = "stage/" ->
        let stage = String.sub name 6 (String.length name - 6) in
        let stage =
          match String.rindex_opt stage '_' with
          | Some i when String.sub stage i (String.length stage - i) = "_us"
            ->
            String.sub stage 0 i
          | _ -> stage
        in
        Some
          ( stage,
            {
              count = n;
              wall = float_of_int n *. mean /. 1e6;
              wall_mean = mean /. 1e6;
              wall_max = max /. 1e6;
            } )
      | _ -> None)
    server

(* ----- renderers ----- *)

let render_health v =
  (if v.degraded then "degraded" else "ok")
  :: List.map
       (fun (name, (s : Health.view_state)) ->
         Printf.sprintf "%s: %s (trips %d%s)" name
           (if s.Health.v_tripped then "TRIPPED" else "ok")
           s.Health.v_trips
           (match s.Health.v_last_reason with
           | Some r -> ", last: " ^ r
           | None -> ""))
       v.health

let render_spans v =
  match v.spans with
  | [] -> [ "no stage profile yet" ]
  | spans ->
    List.map
      (fun (name, a) ->
        Printf.sprintf "%s: count %d, wall %.3fs (mean %.1fus, max %.1fus)"
          name a.count a.wall (a.wall_mean *. 1e6) (a.wall_max *. 1e6))
      spans

let render_stats v =
  let w = v.window in
  [
    Printf.sprintf "slot %d, uptime %.1fs, policy %s, buffer %d" v.slot
      v.uptime v.policy v.buffer;
    Printf.sprintf "ring %d/%d (max %d), shed %d slots (%d packets)"
      v.ring_occupancy v.ring_capacity v.ring_max v.shed_slots v.shed_packets;
    Printf.sprintf
      "window %.1fs: %.0f slots/s, %.0f arrivals/s, %.0f accepted/s, %.1f \
       drops/s, %.1f shed/s"
      w.w_span w.slots_per_sec w.arrivals_per_sec w.accepted_per_sec
      w.drops_per_sec w.shed_slots_per_sec;
    Printf.sprintf "slot time p50 %.1f / p95 %.1f / p99 %.1f us" w.p50_us
      w.p95_us w.p99_us;
    Printf.sprintf "health %s" (if v.degraded then "degraded" else "ok");
  ]

let sample_fields prefix samples =
  List.concat_map
    (fun (name, sample) ->
      let key = prefix ^ "/" ^ name in
      match sample with
      | Registry.Count c -> [ (key, Json.Int c) ]
      | Registry.Level l -> [ (key, Json.Float l) ]
      | Registry.Summary
          { n; mean; p50; p95; p99; max; buckets_per_decade; buckets } ->
        let bucket_str =
          buckets
          |> List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c)
          |> String.concat " "
        in
        [
          (key ^ ".count", Json.Int n);
          (key ^ ".mean", Json.Float mean);
          (key ^ ".p50", Json.Float p50);
          (key ^ ".p95", Json.Float p95);
          (key ^ ".p99", Json.Float p99);
          (key ^ ".max", Json.Float max);
          (key ^ ".bpd", Json.Int buckets_per_decade);
          (key ^ ".buckets", Json.Str bucket_str);
        ])
    samples

let render_json v =
  let w = v.window in
  let fields =
    [
      ("at", Json.Float v.at);
      ("slot", Json.Int v.slot);
      ("uptime", Json.Float v.uptime);
      ("policy", Json.Str v.policy);
      ("buffer", Json.Int v.buffer);
      ("ring_occupancy", Json.Int v.ring_occupancy);
      ("ring_capacity", Json.Int v.ring_capacity);
      ("ring_max", Json.Int v.ring_max);
      ("shed_slots", Json.Int v.shed_slots);
      ("shed_packets", Json.Int v.shed_packets);
      ("degraded", Json.Bool v.degraded);
      ("window.span", Json.Float w.w_span);
      ("window.slots_per_sec", Json.Float w.slots_per_sec);
      ("window.arrivals_per_sec", Json.Float w.arrivals_per_sec);
      ("window.accepted_per_sec", Json.Float w.accepted_per_sec);
      ("window.drops_per_sec", Json.Float w.drops_per_sec);
      ("window.shed_slots_per_sec", Json.Float w.shed_slots_per_sec);
      ("window.p50_us", Json.Float w.p50_us);
      ("window.p95_us", Json.Float w.p95_us);
      ("window.p99_us", Json.Float w.p99_us);
    ]
    @ sample_fields "engine" v.engine
    @ sample_fields "server" v.server
    @ List.map
        (fun (name, (s : Health.view_state)) ->
          ( "health/" ^ name,
            Json.Str (if s.Health.v_tripped then "tripped" else "ok") ))
        v.health
  in
  [ Json.obj fields ]

(* Inverse of {!sample_fields}: reconstruct registry samples from a parsed
   [stats json] line, so a remote client (smbm_cli watch) can run
   {!Registry.Delta} over two polls exactly as if it held the
   registry.  Scalar Int fields under the prefix are counters; dotted
   groups with a [.count] become summaries. *)
let samples_of_json ~prefix fields =
  let plen = String.length prefix + 1 in
  let under = prefix ^ "/" in
  let is_under k =
    String.length k >= plen && String.sub k 0 plen = under
  in
  let base k =
    let rest = String.sub k plen (String.length k - plen) in
    match String.rindex_opt rest '.' with
    | Some i -> (String.sub rest 0 i, Some (String.sub rest (i + 1) (String.length rest - i - 1)))
    | None -> (rest, None)
  in
  let lookup name suffix =
    List.assoc_opt (under ^ name ^ "." ^ suffix) fields
  in
  let flt name suffix =
    match lookup name suffix with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let int name suffix =
    match lookup name suffix with Some (Json.Int i) -> i | _ -> 0
  in
  let parse_buckets s =
    if s = "" then []
    else
      String.split_on_char ' ' s
      |> List.filter_map (fun pair ->
             match String.index_opt pair ':' with
             | Some i -> (
               try
                 Some
                   ( int_of_string (String.sub pair 0 i),
                     int_of_string
                       (String.sub pair (i + 1) (String.length pair - i - 1))
                   )
               with Failure _ -> None)
             | None -> None)
  in
  List.filter_map
    (fun (k, v) ->
      if not (is_under k) then None
      else
        match (base k, v) with
        | (name, None), Json.Int c -> Some (name, Registry.Count c)
        | (name, None), Json.Float l -> Some (name, Registry.Level l)
        | (name, Some "count"), Json.Int n ->
          let buckets =
            match lookup name "buckets" with
            | Some (Json.Str s) -> parse_buckets s
            | _ -> []
          in
          Some
            ( name,
              Registry.Summary
                {
                  n;
                  mean = flt name "mean";
                  p50 = flt name "p50";
                  p95 = flt name "p95";
                  p99 = flt name "p99";
                  max = flt name "max";
                  buckets_per_decade = (match int name "bpd" with 0 -> 10 | b -> b);
                  buckets;
                } )
        | _ -> None)
    fields

(* ----- the window ----- *)

let window_stats ~base ~uptime ~engine ~server =
  let t0, engine0, server0 =
    match base with
    | None -> (0.0, [], [])
    | Some v -> (v.uptime, v.engine, v.server)
  in
  let dt = uptime -. t0 in
  if not (dt > 0.0) then
    {
      w_span = 0.0;
      slots_per_sec = 0.0;
      arrivals_per_sec = 0.0;
      accepted_per_sec = 0.0;
      drops_per_sec = 0.0;
      shed_slots_per_sec = 0.0;
      p50_us = 0.0;
      p95_us = 0.0;
      p99_us = 0.0;
    }
  else
    let e = Registry.Delta.diff ~dt ~earlier:engine0 ~later:engine in
    let s = Registry.Delta.diff ~dt ~earlier:server0 ~later:server in
    let rate d name = Option.value ~default:0.0 (Registry.Delta.rate d name) in
    let q p =
      Option.value ~default:0.0 (Registry.Delta.quantile s "slot_time_us" p)
    in
    {
      w_span = dt;
      slots_per_sec = rate s "slots";
      arrivals_per_sec = rate e "arrivals";
      accepted_per_sec = rate e "accepted";
      drops_per_sec = rate e "dropped";
      shed_slots_per_sec = rate s "shed_slots";
      p50_us = q 0.5;
      p95_us = q 0.95;
      p99_us = q 0.99;
    }

(* Views are kept a tenth of the window apart, so about eleven cover it;
   the oldest one kept lies at or before the window's start and is the
   next window's base. *)
let retain ~window kept v =
  let kept =
    match kept with
    | newest :: _ when v.uptime -. newest.uptime < window /. 10.0 -> kept
    | _ -> v :: kept
  in
  let rec prune = function
    | [] -> []
    | x :: rest ->
      if x.uptime <= v.uptime -. window then [ x ] else x :: prune rest
  in
  prune kept

let window_base ~window kept ~uptime =
  List.find_opt (fun v -> v.uptime <= uptime -. window) kept

(* ----- protocol ----- *)

let handle latest line =
  let cmd = String.trim line in
  match latest with
  | None -> [ "err no snapshot published yet" ]
  | Some v -> (
    match cmd with
    | "stats" -> render_stats v
    | "stats json" -> render_json v
    | "health" -> render_health v
    | "spans" -> render_spans v
    | "" -> [ "err empty command" ]
    | other ->
      [
        Printf.sprintf
          "err unknown command %S (try: stats | stats json | health | spans)"
          other;
      ])

(* ----- server ----- *)

type server = {
  path : string;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  domain : unit Domain.t;
}

let serve_client fd latest =
  (* One client at a time, synchronously: a stats socket has no concurrency
     needs, and the receive timeout below evicts an idle client so it
     cannot wedge the server. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       let line = input_line ic in
       let lines = handle (latest ()) line in
       List.iter
         (fun l ->
           output_string oc l;
           output_char oc '\n')
         lines;
       output_char oc '\n';
       flush oc;
       loop ()
     in
     loop ()
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  try close_in_noerr ic with _ -> ()

let rec accept_loop ~listen_fd ~stop_flag latest =
  if not (Atomic.get stop_flag) then begin
    (match Unix.select [ listen_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept listen_fd with
      | fd, _ -> serve_client fd latest
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop ~listen_fd ~stop_flag latest
  end

let start ~path ~latest =
  (* Writes to a client that vanished mid-response must surface as EPIPE,
     not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    (try if Sys.file_exists path then Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 8;
       fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e)
  with
  | fd ->
    let stop_flag = Atomic.make false in
    let domain =
      Domain.spawn (fun () -> accept_loop ~listen_fd:fd ~stop_flag latest)
    in
    Ok { path; listen_fd = fd; stop_flag; domain }
  | exception Unix.Unix_error (err, fn, _) ->
    Error
      (Printf.sprintf "stats socket %s: %s (%s)" path (Unix.error_message err)
         fn)

let stop s =
  Atomic.set s.stop_flag true;
  Domain.join s.domain;
  (try Unix.close s.listen_fd with Unix.Unix_error _ -> ());
  try if Sys.file_exists s.path then Unix.unlink s.path
  with Unix.Unix_error _ -> ()

(* ----- client ----- *)

let query ~path cmd =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) ->
    Error (Unix.error_message err)
  | fd -> (
    try
      Unix.connect fd (Unix.ADDR_UNIX path);
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
       with Unix.Unix_error _ -> ());
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc cmd;
      output_char oc '\n';
      flush oc;
      let rec read acc =
        match input_line ic with
        | "" -> List.rev acc
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      (try close_in_noerr ic with _ -> ());
      match lines with
      | err :: _
        when String.length err >= 4 && String.sub err 0 4 = "err " ->
        Error (String.sub err 4 (String.length err - 4))
      | lines -> Ok lines
    with
    | Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with _ -> ());
      Error (Unix.error_message err)
    | Sys_error m ->
      (try Unix.close fd with _ -> ());
      Error m)
