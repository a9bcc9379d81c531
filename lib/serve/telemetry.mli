(** Stats socket for a running daemon: a Unix-domain-socket server on its
    own domain, answering a small line protocol from lock-free snapshots.

    {2 Why the slot loop never notices}

    The engine publishes an immutable {!view} record through one
    [Atomic.set] every [stats_every] slots; the server domain reads the
    latest view with [Atomic.get] when a query arrives.  No lock is shared
    with the slot loop, no query can make the engine wait, and a view is
    built from data the loop already maintains — telemetry is
    observer-effect-free on engine {e output} by construction (wall-clock
    timings excepted, which never enter traces).

    {2 Protocol}

    Line-oriented over [AF_UNIX]/[SOCK_STREAM].  The client sends one
    command per line; the server answers with one or more lines followed by
    a blank line.  Commands:

    {v
    stats        human-readable one-screen summary
    stats json   one flat JSON object (see Smbm_obs.Json)
    health       "ok" | "degraded", then one line per watchdog rule
    spans        slot-stage wall-time profile (ingest/ring_wait/engine/flush)
    v}

    Errors are a single line starting with ["err "]. *)

module Registry = Smbm_obs.Registry
module Health = Smbm_obs.Health
module Json = Smbm_obs.Json

type stage = {
  count : int;
  wall : float;  (** total seconds *)
  wall_mean : float;
  wall_max : float;
}
(** One slot stage's wall-time profile. *)

type window_stats = {
  w_span : float;
      (** seconds the window covers: from its base publication (or the
          run start) to this one *)
  slots_per_sec : float;
  arrivals_per_sec : float;
  accepted_per_sec : float;
  drops_per_sec : float;
  shed_slots_per_sec : float;
  p50_us : float;  (** windowed engine slot-time quantiles *)
  p95_us : float;
  p99_us : float;
}

type view = {
  at : float;  (** publication wall instant *)
  slot : int;
  uptime : float;
  policy : string;  (** current (possibly reconfigured) policy name *)
  buffer : int;  (** current B *)
  ring_occupancy : int;
  ring_capacity : int;
  ring_max : int;
  shed_slots : int;
  shed_packets : int;
  window : window_stats;
  engine : (string * Registry.sample) list;
      (** cumulative engine metrics snapshot *)
  server : (string * Registry.sample) list;
      (** daemon-side instruments (slot_time_us, stage/*, ...) *)
  spans : (string * stage) list;  (** slot-stage profile *)
  health : (string * Health.view_state) list;
  degraded : bool;
}

val stage_aggregates :
  (string * Registry.sample) list -> (string * stage) list
(** Lift [stage/<name>_us] histograms from a server-registry snapshot into
    named {!stage} profiles (seconds). *)

val handle : view option -> string -> string list
(** Pure protocol step: answer one command line against the latest view
    ([None] before the first publication).  Exposed for tests. *)

val render_json : view -> string list
(** The [stats json] answer: a single flat JSON line. *)

val samples_of_json :
  prefix:string -> (string * Json.value) list -> (string * Registry.sample) list
(** Reconstruct registry samples from a parsed [stats json] line
    ([prefix] is ["engine"] or ["server"]) — the inverse of the JSON
    rendering, so a remote client can diff two polls with
    {!Smbm_obs.Registry.Delta}. *)

(* ----- the window ----- *)

val window_stats :
  base:view option ->
  uptime:float ->
  engine:(string * Registry.sample) list ->
  server:(string * Registry.sample) list ->
  window_stats
(** The window from [base] to the cumulative [engine]/[server] snapshots
    taken at [uptime]: one {!Smbm_obs.Registry.Delta} per registry over
    [dt = uptime - base.uptime].  [base = None] is the run start, at
    uptime 0 with every counter zero.  The rates read [slots],
    [shed_slots] and the [slot_time_us] quantiles from the server
    snapshots, [arrivals], [accepted] and [dropped] from the engine
    snapshots; [w_span] is [dt].  A [dt <= 0] gives an all-zero window. *)

val retain : window:float -> view list -> view -> view list
(** [retain ~window kept v] adds the publication [v] to the retained views
    [kept] (newest first) when it lies at least [window /. 10] after the
    newest of them, then drops every view older than the newest one at or
    before [v.uptime -. window] — the only one the next window can still
    need from that far back.  At most 12 views survive. *)

val window_base : window:float -> view list -> uptime:float -> view option
(** The newest retained view at or before [uptime -. window]; [None] (the
    run start) while there is none. *)

(* ----- server ----- *)

type server

val start :
  path:string -> latest:(unit -> view option) -> (server, string) result
(** Bind [path] (an existing file at the path is unlinked first), start
    the accept loop on a fresh domain, and ignore [SIGPIPE] process-wide
    (a vanished client must not kill the daemon). *)

val stop : server -> unit
(** Signal the accept loop, join its domain, close and unlink the
    socket. *)

(* ----- client ----- *)

val query : path:string -> string -> (string list, string) result
(** One-shot client: connect, send one command, read lines until the blank
    terminator.  An ["err ..."] answer returns as [Error]. *)
