(** The online switch daemon: one engine instance run as a long-lived
    service behind a bounded SPSC ring.

    An ingest domain fills {!Spsc_ring} slots (one per simulated time slot)
    from a synthetic {!Mmpp_bank}, a recorded trace, or any workload; the
    calling domain consumes them, stepping a {!Smbm_sim.Proc_engine} /
    {!Smbm_sim.Value_engine} instance slot by slot.  The ring's capacity
    bounds both memory and the ingest lead: when the engine falls behind,
    the chosen {!backpressure} either paces the producer ([Block]) or sheds
    whole slots with explicit accounting ([Shed]).

    {2 Live reconfiguration}

    Controls — scripted [(slot, control)] pairs or pushed through a
    {!controller} from another domain — are applied at slot boundaries
    only, between one slot's bookkeeping and the next slot's arrivals:

    - [Set_policy name] rebuilds the victim policy by registry lookup
      against a config carrying the switch's {e live} buffer size (so
      threshold policies derive thresholds from the current B, not the
      boot-time one) and swaps it into the engine's policy ref.
    - [Resize_buffer b] grows or shrinks B in place.  Shrinking is clamped
      to the current occupancy — a reconfiguration never drops a buffered
      packet (the conservation audit would catch it if it did).  The
      current policy is then rebuilt against the new B.
    - [Stop] aborts the ingest and ends the run after the current slot.

    Every applied reconfiguration is recorded as an
    {!Smbm_obs.Event.kind.Reconfig} event and counted in the report; a
    control that cannot be applied (unknown policy name, b < 1) is counted
    as rejected and otherwise ignored — a bad control must not kill a
    daemon. *)

type backpressure = Block | Shed

type control = Set_policy of string | Resize_buffer of int | Stop

type controller
(** A thread-safe typed control channel into a running daemon. *)

val controller : unit -> controller

val push : controller -> control -> unit
(** Enqueue a control; it is applied at the next slot boundary. *)

type ingest =
  | Trace of Smbm_traffic.Trace.Compact.t
      (** replay a recorded trace; ingest ends when the trace does *)
  | Bank of Mmpp_bank.t  (** synthetic MMPP traffic, unbounded *)
  | Workload of Smbm_traffic.Workload.t
      (** any workload; the producer domain owns it exclusively *)

type report = {
  slots : int;  (** slots fully processed by the engine *)
  wall : float;  (** consumer wall-clock seconds *)
  slots_per_sec : float;
  arrivals : int;
  accepted : int;
  transmitted : int;
  dropped : int;  (** dropped by admission control (measured traffic) *)
  flushed : int;
  shed_slots : int;  (** whole slots shed by ring backpressure *)
  shed_packets : int;  (** packets inside those slots (never offered) *)
  ring_capacity : int;
  ring_max : int;  (** ring occupancy high-water mark *)
  reconfigs : int;  (** controls applied *)
  reconfigs_rejected : int;
  p50_us : float;  (** per-slot engine service time quantiles *)
  p95_us : float;
  p99_us : float;
  conservation_ok : bool;
      (** final audit: metrics conservation + switch invariants +
          in-buffer sync, after the whole run including reconfigurations *)
  conservation_error : string option;
  stopped : bool;  (** ended by [Stop] rather than ingest exhaustion *)
  degraded : bool;
      (** any health watchdog tripped at the end of the run (always false
          with telemetry off); callers surface it in the exit status *)
  health : (string * bool) list;
      (** final per-rule tripped state; empty with telemetry off *)
  postmortem : string option;
      (** base path of the black-box dump written this run, if any
          triggered (see {!run}'s [postmortem]) *)
  events_evicted : int;
      (** events the ring overwrote before they could be drained to
          [event_sink] (0 without one); each loss is also marked in the
          sink by a [Truncated] event *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  ?ring_capacity:int ->
  ?backpressure:backpressure ->
  ?flush_every:int ->
  ?metrics_every:int ->
  ?metrics_sink:Smbm_obs.Sink.t ->
  ?event_sink:Smbm_obs.Sink.t ->
  ?controls:(int * control) list ->
  ?controller:controller ->
  ?slots:int ->
  ?duration:float ->
  ?rate:float ->
  ?stats_sock:string ->
  ?stats_every:int ->
  ?stats_window:float ->
  ?telemetry:bool ->
  ?p99_budget_us:float ->
  ?events:Smbm_obs.Flight.t ->
  ?flight_cap:int ->
  ?postmortem:string ->
  model:Model.t ->
  policy:string ->
  ingest:ingest ->
  unit ->
  report
(** Run the daemon to completion on the calling domain (the ingest runs on
    a spawned domain) and return the final report.

    [ring_capacity] (default 64) sizes the ring; [backpressure] (default
    [Block]) picks the full-ring behaviour.  [flush_every] is the
    simulator's periodic flushout period (no flushouts when absent);
    [metrics_every] (default 0 = final only) emits a labeled JSONL metrics
    snapshot to [metrics_sink] every that many slots.  [event_sink]
    receives every event the ring records (see {e Events} below).
    [controls] are scripted reconfigurations, applied once their slot
    boundary is reached (sorted internally).  [slots],
    [duration] (wall seconds) and [rate] (slots per second pacing) bound
    the ingest; with none of them, a [Trace] ingest ends with the trace and
    a [Bank]/[Workload] ingest runs until a [Stop] control.

    {2 Telemetry}

    [stats_sock] serves the {!Telemetry} protocol on a Unix socket at that
    path (from its own domain); [telemetry:true] turns the telemetry plane
    on without a socket (test hook).  With telemetry on, the slot loop
    additionally feeds an {!Smbm_obs.Rolling} window of [stats_window]
    seconds (default 10), times its stages into [stage/*] histograms,
    evaluates {!Smbm_obs.Health} watchdogs (conservation; ring high-water;
    shed rate; and, when [p99_budget_us > 0], windowed p99 slot time over
    budget) and publishes a fresh view every [stats_every] slots (default
    500).  Health transitions are recorded as {!Smbm_obs.Event.kind.Health}
    events into the ring.  With telemetry off, none of this
    runs — no extra clock reads, no extra instruments — so output is
    byte-identical to earlier versions.  Telemetry never alters engine
    behaviour either way: deterministic engine metrics are bit-identical
    with and without a stats socket.

    {2 Events}

    The daemon records every engine event, reconfiguration and health
    transition into one {!Smbm_obs.Flight} ring — the allocation-free
    struct-of-arrays event recorder — holding the last [flight_cap]
    events (default 65536; 0 disables it).  A caller-supplied [events]
    ring overrides the cap.  Recording writes six int columns per event
    and allocates nothing, so the ring is on by default.

    With [event_sink], the events recorded since a drain cursor are
    written to the sink at the end of every slot (and once more after the
    final health evaluation).  The ring itself is never cleared, so the
    postmortem window below survives the drain.  If one slot records more
    than the ring holds, the overwritten events are announced in the sink
    by a [Truncated] marker and counted in the report's
    [events_evicted], so the written trace stays certifiable.

    When [postmortem] is set, the first of (a) a health watchdog tripping,
    (b) a sink latching an I/O error, or (c) the engine raising, dumps the
    ring and a state snapshot to [<postmortem>.trace.bin] (binary trace)
    and [<postmortem>.meta.jsonl] — the {!Smbm_forensics.Postmortem}
    format, replayable and certifiable offline.  Only the first trigger
    dumps (the earliest evidence is the least contaminated); the report's
    [postmortem] field carries the base path when a dump was written.  A
    dump failure never kills the run.

    @raise Invalid_argument if the initial [policy] is unknown for
    [model], [ring_capacity < 1], [event_sink] is given with no ring
    ([flight_cap <= 0] and no [events]), or the stats socket cannot be
    bound. *)
