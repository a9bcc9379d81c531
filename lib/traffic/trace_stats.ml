open Smbm_prelude
open Smbm_core

type t = {
  slots : int;
  arrivals : int;
  per_port : (int * int) list;
  mean_rate : float;
  rate_variance : float;
  burstiness : float;
  peak_rate : int;
  busy_slots : int;
  total_value : int;
}

let analyze trace =
  let slots = Trace.Compact.slots trace in
  let rate_stats = Running_stats.create () in
  let per_port = Hashtbl.create 16 in
  let arrivals = ref 0 in
  let peak = ref 0 in
  let busy = ref 0 in
  let total_value = ref 0 in
  for slot = 0 to slots - 1 do
    let count = ref 0 in
    Trace.Compact.iter_slot trace slot ~f:(fun ~dest ~value ->
        incr count;
        total_value := !total_value + value;
        Hashtbl.replace per_port dest
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_port dest)));
    let count = !count in
    Running_stats.add rate_stats (float_of_int count);
    arrivals := !arrivals + count;
    if count > !peak then peak := count;
    if count > 0 then incr busy
  done;
  let mean_rate = Running_stats.mean rate_stats in
  let rate_variance = Running_stats.variance rate_stats in
  {
    slots;
    arrivals = !arrivals;
    per_port =
      Hashtbl.fold (fun port n acc -> (port, n) :: acc) per_port []
      |> List.sort compare;
    mean_rate;
    rate_variance;
    burstiness = (if mean_rate = 0.0 then 0.0 else rate_variance /. mean_rate);
    peak_rate = !peak;
    busy_slots = !busy;
    total_value = !total_value;
  }

let offered_work config trace =
  let n = Proc_config.n config in
  let work = ref 0 in
  for slot = 0 to Trace.Compact.slots trace - 1 do
    Trace.Compact.iter_slot trace slot ~f:(fun ~dest ~value:_ ->
        if dest >= n then
          invalid_arg "Trace_stats.offered_work: destination has no port";
        work := !work + Proc_config.work config dest)
  done;
  !work

let offered_load config trace =
  let slots = Trace.Compact.slots trace in
  if slots = 0 then 0.0
  else
    let capacity =
      slots * Proc_config.n config * config.Proc_config.speedup
    in
    float_of_int (offered_work config trace) /. float_of_int capacity

let pp ppf t =
  Format.fprintf ppf
    "slots=%d arrivals=%d mean_rate=%.3f burstiness=%.2f peak=%d busy=%d%%"
    t.slots t.arrivals t.mean_rate t.burstiness t.peak_rate
    (if t.slots = 0 then 0 else 100 * t.busy_slots / t.slots)
