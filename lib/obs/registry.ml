module H = Smbm_prelude.Histogram
module Rs = Smbm_prelude.Running_stats

type counter = { c_name : string; mutable count : int }
(* The level lives in an all-float record, stored flat: a float field of
   the mixed record [gauge] would box a fresh one on every [set]. *)
type level = { mutable level : float }
type gauge = { g_name : string; lv : level }
type histogram = { h_name : string; hist : H.t; stats : Rs.t }

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mutable instruments : (string * instrument) list (* newest first *) }

let create () = { instruments = [] }

let register t name make =
  match List.assoc_opt name t.instruments with
  | Some existing -> existing
  | None ->
    let i = make () in
    t.instruments <- (name, i) :: t.instruments;
    i

let kind_error name =
  invalid_arg
    (Printf.sprintf "Registry: %S is already registered with another kind" name)

let counter t name =
  match register t name (fun () -> Counter { c_name = name; count = 0 }) with
  | Counter c -> c
  | Gauge _ | Histogram _ -> kind_error name

let gauge t name =
  match
    register t name (fun () -> Gauge { g_name = name; lv = { level = 0.0 } })
  with
  | Gauge g -> g
  | Counter _ | Histogram _ -> kind_error name

let histogram t ?max_value name =
  match
    register t name (fun () ->
        Histogram
          {
            h_name = name;
            hist = H.create ?max_value ();
            stats = Rs.create ();
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ -> kind_error name

let incr c = c.count <- c.count + 1

let add c n =
  if n < 0 then invalid_arg ("Registry: negative increment on " ^ c.c_name);
  c.count <- c.count + n

let counter_value c = c.count
let set g x = g.lv.level <- x
let set_int g x = g.lv.level <- float_of_int x
let gauge_value g = g.lv.level

let observe h x =
  H.add h.hist x;
  Rs.add h.stats x

let observe_int h x =
  H.add_int h.hist x;
  Rs.add_int h.stats x

let observe_scaled h x scale =
  H.add_scaled h.hist x scale;
  Rs.add_scaled h.stats x scale

let histogram_stats h = h.stats
let histogram_values h = h.hist

type sample =
  | Count of int
  | Level of float
  | Summary of {
      n : int;
      mean : float;
      p50 : float;
      p95 : float;
      p99 : float;
      max : float;
      buckets_per_decade : int;
      buckets : (int * int) list;
    }

let sample_of = function
  | Counter c -> Count c.count
  | Gauge g -> Level g.lv.level
  | Histogram h ->
    Summary
      {
        n = H.count h.hist;
        mean = Rs.mean h.stats;
        p50 = H.quantile h.hist 0.5;
        p95 = H.quantile h.hist 0.95;
        p99 = H.quantile h.hist 0.99;
        max = H.max_seen h.hist;
        buckets_per_decade = H.buckets_per_decade h.hist;
        buckets = H.buckets h.hist;
      }

let snapshot t =
  t.instruments
  |> List.map (fun (name, i) -> (name, sample_of i))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_jsonl ?(labels = []) t =
  let label_fields = List.map (fun (k, v) -> (k, Json.Str v)) labels in
  List.map
    (fun (name, sample) ->
      let fields =
        match sample with
        | Count v -> [ ("type", Json.Str "counter"); ("value", Json.Int v) ]
        | Level v -> [ ("type", Json.Str "gauge"); ("value", Json.Float v) ]
        | Summary { n; mean; p50; p95; p99; max; buckets_per_decade; buckets }
          ->
          (* The JSONL codec is flat (no arrays), so the bucket counts ride
             along as a compact "index:count ..." string — enough to
             reconstruct windowed distributions by diffing two snapshots. *)
          let bucket_str =
            buckets
            |> List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c)
            |> String.concat " "
          in
          [
            ("type", Json.Str "histogram");
            ("count", Json.Int n);
            ("mean", Json.Float mean);
            ("p50", Json.Float p50);
            ("p95", Json.Float p95);
            ("p99", Json.Float p99);
            ("max", Json.Float max);
            ("buckets_per_decade", Json.Int buckets_per_decade);
            ("buckets", Json.Str bucket_str);
          ]
      in
      Json.obj ((("metric", Json.Str name) :: fields) @ label_fields))
    (snapshot t)

let clear t =
  List.iter
    (fun (_, i) ->
      match i with
      | Counter c -> c.count <- 0
      | Gauge g -> g.lv.level <- 0.0
      | Histogram h ->
        H.clear h.hist;
        Rs.clear h.stats)
    t.instruments

(* ----- snapshot diffing ----- *)

module Delta = struct
  type entry =
    | Dcount of int
    | Dhist of { bpd : int; dbuckets : (int * int) list; dn : int }

  type t = { dt : float; entries : (string * entry) list }

  let diff_buckets earlier later =
    (* Bucket-wise [later - earlier], clamped at zero (a racy snapshot
       pair can transiently run a bucket backwards); both inputs are
       sorted by index, so a single merge pass suffices. *)
    let rec go acc es ls =
      match (es, ls) with
      | _, [] -> List.rev acc
      | [], (i, c) :: ls' -> go (if c > 0 then (i, c) :: acc else acc) [] ls'
      | (ei, ec) :: es', (li, lc) :: ls' ->
        if ei < li then go acc es' ls
        else if ei > li then
          go (if lc > 0 then (li, lc) :: acc else acc) es ls'
        else
          let d = lc - ec in
          go (if d > 0 then (li, d) :: acc else acc) es' ls'
    in
    go [] earlier later

  let diff ~dt ~earlier ~later =
    if not (dt > 0.0) then invalid_arg "Registry.Delta.diff: dt <= 0";
    let entries =
      List.filter_map
        (fun (name, sample) ->
          match (sample, List.assoc_opt name earlier) with
          | Count b, Some (Count a) ->
            Some (name, Dcount (max 0 (b - a)))
          | Count b, (None | Some _) -> Some (name, Dcount (max 0 b))
          | ( Summary { buckets_per_decade; buckets; _ },
              Some (Summary { buckets = eb; _ }) ) ->
            let db = diff_buckets eb buckets in
            let dn = List.fold_left (fun acc (_, c) -> acc + c) 0 db in
            Some (name, Dhist { bpd = buckets_per_decade; dbuckets = db; dn })
          | ( Summary { buckets_per_decade; buckets; n; _ },
              (None | Some _) ) ->
            Some
              ( name,
                Dhist { bpd = buckets_per_decade; dbuckets = buckets; dn = n }
              )
          | Level _, _ -> None)
        later
    in
    { dt; entries }

  let names t = List.map fst t.entries

  let delta t name =
    match List.assoc_opt name t.entries with
    | Some (Dcount d) -> Some d
    | Some (Dhist _) | None -> None

  let rate t name =
    Option.map (fun d -> float_of_int d /. t.dt) (delta t name)

  let hist_count t name =
    match List.assoc_opt name t.entries with
    | Some (Dhist { dn; _ }) -> Some dn
    | Some (Dcount _) | None -> None

  let quantile t name q =
    match List.assoc_opt name t.entries with
    | Some (Dhist { bpd; dbuckets; _ }) ->
      Some (H.quantile_of_buckets ~buckets_per_decade:bpd dbuckets q)
    | Some (Dcount _) | None -> None
end
