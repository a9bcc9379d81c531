open Smbm_prelude
module Registry = Smbm_obs.Registry

type t = {
  registry : Registry.t;
  arrivals : Registry.counter;
  accepted : Registry.counter;
  dropped : Registry.counter;
  pushed_out : Registry.counter;
  transmitted : Registry.counter;
  transmitted_value : Registry.counter;
  flushed : Registry.counter;
  latency : Registry.histogram;
  occupancy : Registry.histogram;
}

(* Both histogram fields of counters-only metrics point to this one.  No
   instance's registry lists it, so snapshots skip it, and every access
   below raises on it rather than report an empty distribution, so it is
   never written or read.  One shared sentinel keeps the record its old
   size: metrics that record distributions cost no extra word. *)
let absent = Registry.histogram (Registry.create ()) "absent"

let create ?(distributions = true) () =
  let registry = Registry.create () in
  {
    registry;
    arrivals = Registry.counter registry "arrivals";
    accepted = Registry.counter registry "accepted";
    dropped = Registry.counter registry "dropped";
    pushed_out = Registry.counter registry "pushed_out";
    transmitted = Registry.counter registry "transmitted";
    transmitted_value = Registry.counter registry "transmitted_value";
    flushed = Registry.counter registry "flushed";
    latency =
      (if distributions then
         Registry.histogram registry ~max_value:1e7 "latency"
       else absent);
    occupancy =
      (if distributions then Registry.histogram registry "occupancy"
       else absent);
  }

let recorded what h =
  if h == absent then
    invalid_arg
      ("Metrics." ^ what ^ ": a counters-only instance records no distributions");
  h

let registry t = t.registry
let clear t = Registry.clear t.registry

let record_arrival t = Registry.incr t.arrivals
let record_accept t = Registry.incr t.accepted
let record_drop t = Registry.incr t.dropped
let record_push_out t = Registry.incr t.pushed_out

let record_admissions t ~arrivals ~accepted ~dropped ~pushed_out =
  Registry.add t.arrivals arrivals;
  Registry.add t.accepted accepted;
  Registry.add t.dropped dropped;
  Registry.add t.pushed_out pushed_out

let record_transmit t ~value ~latency =
  Registry.incr t.transmitted;
  Registry.add t.transmitted_value value;
  Registry.observe_int (recorded "record_transmit" t.latency) latency

let record_transmissions t ~count ~value =
  Registry.add t.transmitted count;
  Registry.add t.transmitted_value value

let latency_histogram t = recorded "latency_histogram" t.latency

module Tally = struct
  type t = {
    mutable arrivals : int;
    mutable accepted : int;
    mutable dropped : int;
    mutable pushed_out : int;
    mutable transmitted : int;
    mutable transmitted_value : int;
  }

  let create () =
    {
      arrivals = 0;
      accepted = 0;
      dropped = 0;
      pushed_out = 0;
      transmitted = 0;
      transmitted_value = 0;
    }
end

(* Every accept, drop or push-out follows its arrival in the same batch,
   so an unsettled admission implies an unsettled arrival. *)
let settle t (c : Tally.t) =
  if c.arrivals > 0 then begin
    record_admissions t ~arrivals:c.arrivals ~accepted:c.accepted
      ~dropped:c.dropped ~pushed_out:c.pushed_out;
    c.arrivals <- 0;
    c.accepted <- 0;
    c.dropped <- 0;
    c.pushed_out <- 0
  end;
  if c.transmitted > 0 then begin
    record_transmissions t ~count:c.transmitted ~value:c.transmitted_value;
    c.transmitted <- 0;
    c.transmitted_value <- 0
  end

let record_flush t n = Registry.add t.flushed n
let record_occupancy t occ =
  Registry.observe_int (recorded "record_occupancy" t.occupancy) occ

let arrivals t = Registry.counter_value t.arrivals
let accepted t = Registry.counter_value t.accepted
let dropped t = Registry.counter_value t.dropped
let pushed_out t = Registry.counter_value t.pushed_out
let transmitted t = Registry.counter_value t.transmitted
let transmitted_value t = Registry.counter_value t.transmitted_value
let flushed t = Registry.counter_value t.flushed

let latency_stats t =
  Registry.histogram_stats (recorded "latency_stats" t.latency)

let latency_hist t =
  Registry.histogram_values (recorded "latency_hist" t.latency)

let occupancy_stats t =
  Registry.histogram_stats (recorded "occupancy_stats" t.occupancy)

let in_buffer t = accepted t - transmitted t - pushed_out t - flushed t

let check_conservation t =
  if arrivals t <> accepted t + dropped t then
    invalid_arg "Metrics: arrivals <> accepted + dropped";
  if in_buffer t < 0 then
    invalid_arg "Metrics: negative in-buffer population"

let throughput_of objective t =
  match objective with
  | `Packets -> transmitted t
  | `Value -> transmitted_value t

let to_jsonl ?labels t = Registry.to_jsonl ?labels t.registry

let pp ppf t =
  Format.fprintf ppf
    "arrivals=%d accepted=%d dropped=%d pushed_out=%d transmitted=%d \
     value=%d flushed=%d buffered=%d"
    (arrivals t) (accepted t) (dropped t) (pushed_out t) (transmitted t)
    (transmitted_value t) (flushed t) (in_buffer t);
  if t.latency != absent then begin
    let hist = latency_hist t in
    if Histogram.count hist > 0 then
      Format.fprintf ppf " latency[p50=%.1f p95=%.1f p99=%.1f]"
        (Histogram.quantile hist 0.5)
        (Histogram.quantile hist 0.95)
        (Histogram.quantile hist 0.99)
  end
