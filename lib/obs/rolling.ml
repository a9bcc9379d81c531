module H = Smbm_prelude.Histogram

(* A rolling window is a fixed ring of time buckets of equal width.  Every
   operation takes the caller's clock as [~now], an integer instant in
   nanoseconds — the module never reads a clock itself, so tests drive it
   with injected instants and the daemon passes the reading it already
   took for the slot.  Instants are ints so a per-slot write boxes
   nothing, and a bucket's epoch is an integer division.  Advancing clears
   at most [nbuckets] cells regardless of how far the clock jumped, so the
   amortized cost of keeping the window current is O(1). *)

type hdata = { bpd : int; hcells : H.t array }

type t = {
  window : int; (* ns covered by the whole ring *)
  width : int; (* ns per bucket *)
  n : int;
  mutable epoch : int; (* floor (now / width) of the freshest bucket *)
  mutable started : bool;
  mutable start : int; (* first instant ever seen *)
  mutable counters : (string * int array) list;
  mutable histograms : (string * hdata) list;
}

type counter = { c_roll : t; c_cells : int array }
type histogram = { h_roll : t; h_data : hdata }

(* Longest window accepted, in seconds (about 31 years): its nanoseconds
   stay far inside the int range. *)
let max_window = 1e9

let create ~window ?(buckets = 10) () =
  if not (window > 0.0) then invalid_arg "Rolling.create: window <= 0";
  if window > max_window then invalid_arg "Rolling.create: window too long";
  if buckets < 1 then invalid_arg "Rolling.create: buckets < 1";
  let window = Float.to_int (Float.round (window *. 1e9)) in
  let width = window / buckets in
  if width < 1 then invalid_arg "Rolling.create: bucket under 1 ns";
  {
    window;
    width;
    n = buckets;
    epoch = 0;
    started = false;
    start = 0;
    counters = [];
    histograms = [];
  }

let counter t name =
  match List.assoc_opt name t.counters with
  | Some cells -> { c_roll = t; c_cells = cells }
  | None ->
    let cells = Array.make t.n 0 in
    t.counters <- (name, cells) :: t.counters;
    { c_roll = t; c_cells = cells }

let histogram t ?(buckets_per_decade = 10) name =
  match List.assoc_opt name t.histograms with
  | Some hd -> { h_roll = t; h_data = hd }
  | None ->
    let hd =
      {
        bpd = buckets_per_decade;
        hcells = Array.init t.n (fun _ -> H.create ~buckets_per_decade ());
      }
    in
    t.histograms <- (name, hd) :: t.histograms;
    { h_roll = t; h_data = hd }

(* Floor division, so an instant before the origin still lands in the
   bucket below it. *)
let epoch_of t now =
  let q = now / t.width in
  if now < 0 && q * t.width <> now then q - 1 else q

(* Recursive walks rather than [List.iter] over a closure: a bucket
   rollover happens on the slot path and allocates nothing. *)
let rec clear_counters idx = function
  | [] -> ()
  | (_, cells) :: rest ->
    cells.(idx) <- 0;
    clear_counters idx rest

let rec clear_histograms idx = function
  | [] -> ()
  | (_, hd) :: rest ->
    H.clear hd.hcells.(idx);
    clear_histograms idx rest

let clear_cell t idx =
  clear_counters idx t.counters;
  clear_histograms idx t.histograms

let advance t ~now =
  let e = epoch_of t now in
  if not t.started then begin
    t.started <- true;
    t.start <- now;
    t.epoch <- e
  end
  else if e > t.epoch then begin
    (* Clear every bucket the clock skipped over; a jump past the whole
       window wipes all [n] cells and no more. *)
    let steps = min (e - t.epoch) t.n in
    for k = 1 to steps do
      clear_cell t ((t.epoch + k) mod t.n)
    done;
    t.epoch <- e
  end
(* [e < t.epoch] (a clock running backwards) is benign: writes keep landing
   in the freshest bucket. *)

let span t ~now =
  let covered =
    if not t.started then t.width
    else max t.width (min t.window (now - t.start))
  in
  float_of_int covered /. 1e9

let cell_index t = ((t.epoch mod t.n) + t.n) mod t.n

let add c ~now k =
  advance c.c_roll ~now;
  let i = cell_index c.c_roll in
  c.c_cells.(i) <- c.c_cells.(i) + k

let incr c ~now = add c ~now 1

let total c ~now =
  advance c.c_roll ~now;
  Array.fold_left ( + ) 0 c.c_cells

let rate c ~now = float_of_int (total c ~now) /. span c.c_roll ~now

let observe h ~now x =
  advance h.h_roll ~now;
  H.add h.h_data.hcells.(cell_index h.h_roll) x

let observe_scaled h ~now x scale =
  advance h.h_roll ~now;
  H.add_scaled h.h_data.hcells.(cell_index h.h_roll) x scale

let hist_count h ~now =
  advance h.h_roll ~now;
  Array.fold_left (fun acc hist -> acc + H.count hist) 0 h.h_data.hcells

let merged_buckets h =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun hist ->
      List.iter
        (fun (i, c) ->
          Hashtbl.replace tbl i
            (c + Option.value ~default:0 (Hashtbl.find_opt tbl i)))
        (H.buckets hist))
    h.h_data.hcells;
  Hashtbl.fold (fun i c acc -> (i, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile h ~now q =
  advance h.h_roll ~now;
  H.quantile_of_buckets ~buckets_per_decade:h.h_data.bpd (merged_buckets h) q

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
    if dt <= 0.0 then invalid_arg "Rolling.Delta.diff: dt <= 0";
    let entries =
      List.filter_map
        (fun (name, sample) ->
          match (sample, List.assoc_opt name earlier) with
          | Registry.Count b, Some (Registry.Count a) ->
            Some (name, Dcount (max 0 (b - a)))
          | Registry.Count b, (None | Some _) -> Some (name, Dcount (max 0 b))
          | ( Registry.Summary { buckets_per_decade; buckets; _ },
              Some (Registry.Summary { buckets = eb; _ }) ) ->
            let db = diff_buckets eb buckets in
            let dn = List.fold_left (fun acc (_, c) -> acc + c) 0 db in
            Some (name, Dhist { bpd = buckets_per_decade; dbuckets = db; dn })
          | ( Registry.Summary { buckets_per_decade; buckets; n; _ },
              (None | Some _) ) ->
            Some
              ( name,
                Dhist { bpd = buckets_per_decade; dbuckets = buckets; dn = n }
              )
          | Registry.Level _, _ -> None)
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
