type sample = {
  slot : int;
  occupancy : int;
  throughput : float;
  drop_rate : float;
}

type t = {
  every : int;
  name : string;
  mutable slot : int;
  mutable last_transmitted : int;
  mutable last_dropped : int;
  mutable last_arrivals : int;
  mutable samples : sample list; (* newest first *)
}

let attach ~every (inst : Instance.t) =
  if every <= 0 then invalid_arg "Timeseries.attach: every must be positive";
  let t =
    {
      every;
      name = inst.name;
      slot = 0;
      last_transmitted = 0;
      last_dropped = 0;
      last_arrivals = 0;
      samples = [];
    }
  in
  let end_slot () =
    inst.end_slot ();
    t.slot <- t.slot + 1;
    if t.slot mod t.every = 0 then begin
      let m = inst.metrics in
      let sent = Metrics.transmitted m - t.last_transmitted in
      let dropped = Metrics.dropped m - t.last_dropped in
      let arrivals = Metrics.arrivals m - t.last_arrivals in
      t.last_transmitted <- Metrics.transmitted m;
      t.last_dropped <- Metrics.dropped m;
      t.last_arrivals <- Metrics.arrivals m;
      t.samples <-
        {
          slot = t.slot;
          occupancy = inst.occupancy ();
          throughput = float_of_int sent /. float_of_int t.every;
          drop_rate =
            (if arrivals = 0 then 0.0
             else float_of_int dropped /. float_of_int arrivals);
        }
        :: t.samples
    end
  in
  ({ inst with end_slot }, t)

let samples t = List.length t.samples

let series t ~suffix select =
  Smbm_report.Series.make
    ~name:(t.name ^ suffix)
    ~points:
      (List.rev_map
         (fun (s : sample) -> (float_of_int s.slot, select s))
         t.samples)

let occupancy t = series t ~suffix:"/occupancy" (fun s -> float_of_int s.occupancy)
let throughput t = series t ~suffix:"/throughput" (fun s -> s.throughput)
let drop_rate t = series t ~suffix:"/drop-rate" (fun s -> s.drop_rate)

let table t =
  ( [ "slot"; "occupancy"; "throughput"; "drop_rate" ],
    List.rev_map
      (fun (s : sample) ->
        [
          string_of_int s.slot;
          string_of_int s.occupancy;
          Printf.sprintf "%.6f" s.throughput;
          Printf.sprintf "%.6f" s.drop_rate;
        ])
      t.samples )
