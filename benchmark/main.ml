(* The end-to-end benchmark of the Fig. 5 reproduction and the serve daemon.

     dune exec benchmark/main.exe -- [--workload W] [--seed N] [--seconds S]
                                     [--trace 0|1 | --layers] [--smoke]
                                     [--out FILE]

   Without [--workload] the driver re-executes itself once per workload, so
   each runs in a fresh process.  A run warms up on a small unit of the
   workload's shape, repeats the full unit for [--seconds], then times the
   set-up alone several times; it reports medians.  [--trace 1]
   ([--layers]) splits the time between an untraced and a traced phase and
   reports the per-layer metrics.

   Output: one JSON line per metric, then, as the last line, the summary
   {"correct", "attempted", "failed", "metrics"} whose metrics are exactly
   the end-to-end set (or, traced, the per-layer set) that BENCHMARK.json
   lists.  The exit code is 0 only when every output check held.  See
   README.md. *)

let workload = ref None
let seed = ref 42
let seconds = ref 20.0
let traced = ref false
let smoke = ref false
let out = ref None

let args =
  [
    ( "--workload",
      Arg.String (fun w -> workload := Some w),
      "W  one of " ^ String.concat ", " Workloads.names ^ " (default: all)" );
    ("--seed", Arg.Set_int seed, "N  traffic seed (default 42)");
    ("--seconds", Arg.Set_float seconds, "S  measured time per run (default 20)");
    ( "--trace",
      Arg.Int
        (function
        | 0 -> traced := false
        | 1 -> traced := true
        | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
      "0|1  report the per-layer metrics from an added traced phase" );
    ("--layers", Arg.Set traced, " same as --trace 1");
    ("--smoke", Arg.Set smoke, " every workload once, at a few percent of its size");
    ("--out", Arg.String (fun f -> out := Some f), "FILE  also append the lines");
  ]

(* ----- statistics ----- *)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
let div a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> fi kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> 0.0
      in
      find ())

(* ----- the metric sets BENCHMARK.json declares ----- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("slots_per_s", "1/s");
    ("minor_words_per_slot", "words");
  ]

let policies =
  [
    ("proc", [ "NHST"; "NEST"; "NHDT"; "LQD"; "BPD"; "BPD1"; "LWD" ]);
    ("value_uniform", [ "Greedy"; "NEST"; "LQD"; "MVD"; "MVD1"; "MRD" ]);
    ( "value_port",
      [ "Greedy"; "NEST"; "LQD"; "MVD"; "MVD1"; "MRD"; "NHST" ] );
  ]

let per_layer =
  [
    ("traffic.busy_s", "s");
    ("traffic.share", "ratio");
    ("traffic.ns_per_arrival", "ns");
    ("traffic.minor_words_per_slot", "words");
    ("traffic.arrivals", "count");
    ("traffic.materialize_s", "s");
    ("admit.busy_s", "s");
    ("admit.share", "ratio");
    ("admit.ns_per_arrival", "ns");
    ("admit.fast_path_share", "ratio");
    ("admit.pushout_ratio", "ratio");
    ("admit.drop_ratio", "ratio");
    ("admit.useful_ratio", "ratio");
  ]
  @ List.concat_map
      (fun (model, names) ->
        List.map
          (fun p -> (Printf.sprintf "admit.%s.%s.ns_per_arrival" model p, "ns"))
          names)
      policies
  @ [
      ("transmit.busy_s", "s");
      ("transmit.share", "ratio");
      ("transmit.ns_per_packet", "ns");
    ]
  @ List.map (fun (m, _) -> ("transmit." ^ m ^ ".ns_per_slot", "ns")) policies
  @ [
      ("end_slot.busy_s", "s");
      ("end_slot.share", "ratio");
      ("opt_ref.busy_s", "s");
      ("opt_ref.share", "ratio");
      ("opt_ref.ns_per_slot", "ns");
      ("audit.busy_s", "s");
      ("audit.share", "ratio");
      ("pool.busy_s", "s");
      ("pool.utilisation", "ratio");
      ("pool.imbalance", "ratio");
      ("pool.max_task_s", "s");
      ("serve.ingest.busy_s", "s");
      ("serve.ingest.share", "ratio");
      ("serve.engine.busy_s", "s");
      ("serve.engine.share", "ratio");
      ("serve.engine.us_per_slot", "us");
      ("serve.ring_wait_s", "s");
      ("serve.consumer_idle_share", "ratio");
      ("serve.flush_s", "s");
      ("serve.ring_max", "count");
      ("serve.shed_share", "ratio");
      ("serve.slot_p50_us", "us");
      ("serve.slot_p99_us", "us");
      ("gc.minor_words_per_slot", "words");
      ("gc.promoted_words_per_slot", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.peak_rss_mb", "MB");
      ("trace.overhead", "ratio");
      ("trace.coverage", "ratio");
    ]

(* ----- one workload in this process ----- *)

type run = {
  setups : float list;  (** seconds per set-up *)
  setup_records : bool;
  peak_rss_mb : float;  (** high-water mark through the timed phases *)
  plain : Workloads.result list;  (** untraced repetitions *)
  traced : Workloads.result list;
  layers : Layers.t;  (** merged over the traced repetitions *)
}

let now_s () = fi (Layers.now_ns ()) *. 1e-9

let measure name =
  let sizes = if !smoke then Workloads.smoke else Workloads.full in
  let w = Workloads.make name sizes ~seed:!seed in
  (* Warm-up: one untimed unit of the same shape, a few percent of the
     size, through each path the run will time.  A smoke run is all
     check, no timing, and skips it. *)
  if not !smoke then begin
    let warm = Workloads.make name Workloads.smoke ~seed:!seed in
    warm.setup ();
    ignore (warm.run None : Workloads.result);
    if !traced then begin
      if warm.fresh_setup then warm.setup ();
      ignore (warm.run (Some (Layers.create ())) : Workloads.result)
    end
  end;
  Gc.compact ();
  (* Set-up is timed alone, one at a time after a full collection so that
     none pays for another's garbage.  The host's speed drifts within a
     second, and a set-up of microseconds shows it most, so the samples
     are spread over the run: a burst of up to 0.2 s before each untraced
     unit, topped up to three at the end.  The last set-up of a burst is
     the state the next unit runs on. *)
  let setups = ref [] in
  let ready = ref false in
  let setup () =
    Gc.full_major ();
    let t0 = now_s () in
    w.setup ();
    setups := (now_s () -. t0) :: !setups;
    ready := true
  in
  let burst () =
    let start = now_s () in
    let rec go () =
      let last = match !setups with s :: _ -> s | [] -> 0.0 in
      if now_s () -. start +. last <= 0.2 then begin
        setup ();
        go ()
      end
    in
    go ()
  in
  (* Repeat the unit until the next one would, on average, end more than
     half a unit past the budget; a smoke budget of 0 runs it once. *)
  let phase budget lt =
    let start = now_s () in
    let rec go acc n =
      let elapsed = now_s () -. start in
      if n > 0 && elapsed +. (elapsed /. fi n /. 2.0) > budget then List.rev acc
      else begin
        if Option.is_none lt then burst ();
        if not !ready then w.setup ();
        ready := not w.fresh_setup;
        Gc.full_major ();
        go (w.run lt :: acc) (n + 1)
      end
    in
    go [] 0
  in
  let layers = Layers.create () in
  let budget =
    if !smoke then 0.0 else if !traced then !seconds /. 2.0 else !seconds
  in
  let plain = phase budget None in
  let traced = if !traced then phase budget (Some layers) else [] in
  let peak_rss_mb = peak_rss_mb () in
  while (not !smoke) && List.length !setups < 3 do
    setup ()
  done;
  {
    setups = !setups;
    setup_records = w.setup_records;
    peak_rss_mb;
    plain;
    traced;
    layers;
  }

(* ----- metrics ----- *)

let rate (r : Workloads.result) = div (fi r.slots) r.wall
let med f rs = median (List.map f rs)

let end_to_end_values r =
  [
    ("setup_s", median r.setups);
    ("wall_s", med (fun (x : Workloads.result) -> x.wall) r.plain);
    ("slots_per_s", med rate r.plain);
    ( "minor_words_per_slot",
      med (fun (x : Workloads.result) -> div x.gc.minor_words (fi x.slots)) r.plain );
  ]

let reports rs = List.filter_map (fun (x : Workloads.result) -> x.report) rs

(* Printed for the reader but not gated: the sweeps have no slot latency,
   a share of failures is 0 whenever the run is correct, and peak memory
   swings with the collector's timing (see README.md). *)
let informative r ~attempted ~failed =
  let daemon f =
    match reports r.plain with
    | [] -> []
    | reps -> [ median (List.map f reps) ]
  in
  [ ("failed_share", div (fi failed) (fi attempted), "ratio");
    ("peak_rss_mb", r.peak_rss_mb, "MB") ]
  @ List.map
      (fun v -> ("slot_p50_us", v, "us"))
      (daemon (fun (x : Smbm_serve.Daemon.report) -> x.p50_us))
  @ List.map
      (fun v -> ("slot_p99_us", v, "us"))
      (daemon (fun (x : Smbm_serve.Daemon.report) -> x.p99_us))

let per_layer_values r =
  let l = r.layers in
  let reps = fi (max 1 (List.length r.traced)) in
  (* Busy times are per unit: totals over the traced repetitions / reps. *)
  let s ns = fi ns *. 1e-9 /. reps in
  let share ns = div (fi ns) (fi l.busy_ns) in
  let admit_ns = Layers.total l.admit in
  let admit_items = Layers.total_items l.admit in
  let transmit_ns = Layers.total l.transmit in
  let arrivals = fi l.arrivals in
  let serving = List.exists (fun (x : Workloads.result) -> x.stages <> []) r.traced in
  let stage_s name =
    List.fold_left
      (fun acc (x : Workloads.result) ->
        match List.assoc_opt name x.stages with
        | Some (_, us) -> acc +. (us *. 1e-6)
        | None -> acc)
      0.0 r.traced
    /. reps
  in
  let engine_s = stage_s "stage/engine_us" and flush_s = stage_s "stage/flush_us" in
  let wall_s = s l.busy_ns in
  let pools =
    List.filter_map
      (fun (x : Workloads.result) -> Option.map (fun p -> (x, p)) x.pool)
      r.plain
  in
  let pool f = median (List.map f pools) in
  let gc f = med f r.plain in
  let daemon f = median (List.map f (reports r.plain)) in
  [
    ("traffic.busy_s", s l.traffic.ns);
    ("traffic.share", share l.traffic.ns);
    ("traffic.ns_per_arrival", div (fi l.traffic.ns) (fi l.traffic.items));
    ("traffic.minor_words_per_slot", div (fi l.traffic_words) (fi l.traffic.calls));
    ("traffic.arrivals", fi l.traffic.items /. reps);
    ( "traffic.materialize_s",
      if r.setup_records then median r.setups else s l.materialize_ns );
    ("admit.busy_s", s admit_ns);
    ("admit.share", share admit_ns);
    ("admit.ns_per_arrival", div (fi admit_ns) (fi admit_items));
    ("admit.fast_path_share", div (fi l.fast_arrivals) (fi admit_items));
    ("admit.pushout_ratio", div (fi l.pushed_out) arrivals);
    ("admit.drop_ratio", div (fi l.dropped) arrivals);
    ("admit.useful_ratio", div (fi l.transmitted) arrivals);
  ]
  @ List.concat_map
      (fun (model, names) ->
        List.map
          (fun p ->
            let sp = Layers.find l.admit (model ^ "." ^ p) in
            ( Printf.sprintf "admit.%s.%s.ns_per_arrival" model p,
              div (fi sp.ns) (fi sp.items) ))
          names)
      policies
  @ [
      ("transmit.busy_s", s transmit_ns);
      ("transmit.share", share transmit_ns);
      ("transmit.ns_per_packet", div (fi transmit_ns) (fi l.transmitted));
    ]
  @ List.map
      (fun (m, _) ->
        let sp = Layers.find l.transmit m in
        ("transmit." ^ m ^ ".ns_per_slot", div (fi sp.ns) (fi sp.calls)))
      policies
  @ [
      ("end_slot.busy_s", s l.end_slot.ns);
      ("end_slot.share", share l.end_slot.ns);
      ("opt_ref.busy_s", s l.opt_ref.ns);
      ("opt_ref.share", share l.opt_ref.ns);
      ("opt_ref.ns_per_slot", div (fi l.opt_ref.ns) (fi l.slots));
      ("audit.busy_s", s l.audit.ns);
      ("audit.share", share l.audit.ns);
      ("pool.busy_s", pool (fun (_, p) -> p.busy_wall));
      ( "pool.utilisation",
        pool (fun (x, p) ->
            div p.busy_wall (x.wall *. fi (Array.length p.domain_busy))) );
      ( "pool.imbalance",
        pool (fun (_, p) ->
            let d = p.domain_busy in
            div
              (Array.fold_left max 0.0 d)
              (div (Array.fold_left ( +. ) 0.0 d) (fi (Array.length d)))) );
      ("pool.max_task_s", pool (fun (_, p) -> p.max_task_wall));
      ("serve.ingest.busy_s", if serving then s l.traffic.ns else 0.0);
      ("serve.ingest.share", if serving then share l.traffic.ns else 0.0);
      ("serve.engine.busy_s", engine_s);
      ("serve.engine.share", div engine_s wall_s);
      ("serve.engine.us_per_slot", div (engine_s *. 1e6) (fi l.slots /. reps));
      ("serve.ring_wait_s", stage_s "stage/ring_wait_us");
      ( "serve.consumer_idle_share",
        if serving then 1.0 -. div (stage_s "slot_time_us") wall_s else 0.0 );
      ("serve.flush_s", flush_s);
      ("serve.ring_max", daemon (fun x -> fi x.ring_max));
      ("serve.shed_share", daemon (fun x -> div (fi x.shed_slots) (fi x.slots)));
      ("serve.slot_p50_us", daemon (fun x -> x.p50_us));
      ("serve.slot_p99_us", daemon (fun x -> x.p99_us));
      ("gc.minor_words_per_slot", gc (fun x -> div x.gc.minor_words (fi x.slots)));
      ( "gc.promoted_words_per_slot",
        gc (fun x -> div x.gc.promoted_words (fi x.slots)) );
      ("gc.minor_collections", gc (fun x -> fi x.gc.minor_collections));
      ("gc.major_collections", gc (fun x -> fi x.gc.major_collections));
      ("gc.peak_rss_mb", r.peak_rss_mb);
      ("trace.overhead", div (med rate r.traced) (med rate r.plain));
      (* Sweeps: the leaf spans over the traced busy time.  Serve: the
         engine and flush stages over the daemon's whole slot time. *)
      ( "trace.coverage",
        if serving then div (engine_s +. flush_s) (stage_s "slot_time_us")
        else share (Layers.covered l) );
    ]

(* ----- output ----- *)

(* [set]'s metrics in order, with their units; a metric the workload does
   not have reads 0. *)
let with_units set values =
  List.map
    (fun (metric, unit) ->
      let v = Option.value ~default:0.0 (List.assoc_opt metric values) in
      (* JSON has no non-finite numbers. *)
      (metric, (if Float.is_finite v then v else 0.0), unit))
    set

let metric_line name kind (metric, value, unit) =
  Smbm_obs.Json.obj
    [
      ("workload", Str name);
      ("kind", Str kind);
      ("metric", Str metric);
      ("value", Float value);
      ("unit", Str unit);
    ]

(* The committed digest for this workload, scale and seed, if any. *)
let expected_digest name =
  let path = Filename.concat "benchmark" (Filename.concat "expected" "digests.txt") in
  let scale = if !smoke then "smoke" else "full" in
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; sc; sd; d ]
             when w = name && sc = scale && sd = string_of_int !seed ->
             Some d
           | _ -> None)

let run_one name =
  let r = measure name in
  let all = r.plain @ r.traced in
  let reference = match r.plain with x :: _ -> x.digest | [] -> "" in
  let expected = expected_digest name in
  (* Every repetition, traced or not, must reproduce the run's first digest
     and the committed one; one that does not fails every operation it
     attempted. *)
  let failed_of (x : Workloads.result) =
    if x.digest <> reference || Option.fold ~none:false ~some:(( <> ) x.digest) expected
    then x.attempted
    else x.failed
  in
  List.iteri
    (fun i (x : Workloads.result) ->
      if failed_of x > 0 then
        Printf.eprintf "%s: unit %d failed %d of %d (digest %s, first %s)\n" name i
          (failed_of x) x.attempted x.digest reference)
    all;
  let attempted = List.fold_left (fun n (x : Workloads.result) -> n + x.attempted) 0 all in
  let failed = List.fold_left (fun n x -> n + failed_of x) 0 all in
  let correct = failed = 0 && attempted > 0 in
  let oc =
    Option.map (open_out_gen [ Open_append; Open_creat; Open_text ] 0o644) !out
  in
  let emit line =
    print_endline line;
    Option.iter (fun oc -> output_string oc (line ^ "\n")) oc
  in
  let e2e = with_units end_to_end (end_to_end_values r) in
  List.iter (fun m -> emit (metric_line name "end_to_end" m)) e2e;
  List.iter
    (fun m -> emit (metric_line name "info" m))
    (informative r ~attempted ~failed);
  emit
    (Smbm_obs.Json.obj
       [
         ("workload", Str name);
         ("kind", Str "digest");
         ("digest", Str reference);
         ("expected", Str (Option.value expected ~default:""));
         ("repetitions", Int (List.length r.plain));
         ("traced_repetitions", Int (List.length r.traced));
       ]);
  let reported =
    if !traced then begin
      let layers = with_units per_layer (per_layer_values r) in
      List.iter (fun m -> emit (metric_line name "per_layer" m)) layers;
      layers
    end
    else e2e
  in
  emit
    (Printf.sprintf
       "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
       correct attempted failed
       (String.concat ", "
          (List.map
             (fun (metric, value, unit) ->
               Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
                 metric value unit)
             reported)));
  Option.iter close_out oc;
  exit (if correct then 0 else 1)

(* Each workload in a fresh process: no heap, domain or cache state leaks
   from one into the next. *)
let run_all () =
  Option.iter (fun f -> close_out (open_out f)) !out;
  let forwarded =
    [ "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds;
      "--trace"; (if !traced then "1" else "0") ]
    @ (if !smoke then [ "--smoke" ] else [])
    @ match !out with Some f -> [ "--out"; f ] | None -> []
  in
  let failures =
    List.filter
      (fun name ->
        let argv =
          Array.of_list ((Sys.executable_name :: "--workload" :: name :: forwarded))
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> false
        | _ -> true)
      Workloads.names
  in
  if failures <> [] then begin
    prerr_endline ("failed: " ^ String.concat ", " failures);
    exit 1
  end

(* The benchmark measures the program's defaults, which some SMBM_*
   variables change. *)
let warn_environment () =
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"SMBM_" kv then
        prerr_endline ("warning: " ^ kv ^ " is set; the benchmark measures the defaults"))
    (Unix.environment ())

let () =
  warn_environment ();
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]";
  match !workload with
  | None -> run_all ()
  | Some name when List.mem name Workloads.names -> run_one name
  | Some name ->
    prerr_endline ("unknown workload " ^ name);
    exit 2
