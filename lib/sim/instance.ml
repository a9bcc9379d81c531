open Smbm_core

type t = {
  name : string;
  arrive_dv : dest:int -> value:int -> unit;
  arrive_batch : (Arrival_batch.t -> unit) option;
  transmit : unit -> unit;
  end_slot : unit -> unit;
  flush : unit -> unit;
  occupancy : unit -> int;
  metrics : Metrics.t;
  ports : Port_stats.t option;
  check : unit -> unit;
}

let step_batch t ~batch =
  (match t.arrive_batch with
  | Some f -> f batch
  | None -> Arrival_batch.iter batch ~f:t.arrive_dv);
  t.transmit ();
  t.end_slot ()

let arrival_paths ~settle arrive =
  let arrive_dv ~dest ~value =
    match arrive ~dest ~value with
    | () -> settle ()
    | exception e ->
      settle ();
      raise e
  in
  let arrive_batch batch =
    match Arrival_batch.iter batch ~f:arrive with
    | () -> settle ()
    | exception e ->
      settle ();
      raise e
  in
  (arrive_dv, arrive_batch)
