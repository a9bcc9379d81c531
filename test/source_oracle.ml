(* Reference per-source traffic: the original composition of one MMPP
   process and one labelling closure per source, each stepped through its
   own calls and every slot prepended onto a list.  Smbm_traffic.Source_bank
   must agree with it slot by slot (test_source_bank.ml drives the two in
   lockstep). *)

open Smbm_prelude
open Smbm_core

(* ----- the on-off process ----- *)

type process = {
  rng : Rng.t;
  p_on_to_off : float;
  p_off_to_on : float;
  sample : Rng.t -> int;
  mutable on : bool;
}

let stationary_on ~p_on_to_off ~p_off_to_on =
  if p_on_to_off +. p_off_to_on = 0.0 then 0.5
  else p_off_to_on /. (p_on_to_off +. p_off_to_on)

let process ~rng ~p_on_to_off ~p_off_to_on ~sample =
  let on = Rng.bernoulli rng ~p:(stationary_on ~p_on_to_off ~p_off_to_on) in
  { rng; p_on_to_off; p_off_to_on; sample; on }

let step t =
  let flip_p = if t.on then t.p_on_to_off else t.p_off_to_on in
  if Rng.bernoulli t.rng ~p:flip_p then t.on <- not t.on;
  if t.on then t.sample t.rng else 0

(* ----- emissions ----- *)

let poisson ~lambda rng = Rng.poisson rng ~lambda

(* Heavy (Pareto) tail with the given mean: thinned when the raw Pareto
   mean exceeds the target, topped up with an independent Poisson stream
   otherwise. *)
let heavy_batch ~alpha ~max_batch ~mean =
  let raw_mean = Rng.pareto_int_mean ~alpha ~max:max_batch in
  if mean <= raw_mean then begin
    let p = mean /. raw_mean in
    fun rng ->
      if Rng.bernoulli rng ~p then Rng.pareto_int rng ~alpha ~max:max_batch
      else 0
  end
  else
    fun rng ->
      Rng.pareto_int rng ~alpha ~max:max_batch
      + Rng.poisson rng ~lambda:(mean -. raw_mean)

let sample_of (emission : Smbm_traffic.Source_bank.emission) =
  match emission with
  | Poisson lambda -> poisson ~lambda
  | Heavy_tail { alpha; max_batch; mean } -> heavy_batch ~alpha ~max_batch ~mean

(* ----- labels ----- *)

type label = Rng.t -> Arrival.t

let uniform_port ~n rng = Arrival.make ~dest:(Rng.int rng n) ()

let uniform_port_and_value ~n ~k rng =
  Arrival.make ~dest:(Rng.int rng n) ~value:(Rng.int_in rng 1 k) ()

let value_equals_port ~n rng =
  let dest = Rng.int rng n in
  Arrival.make ~dest ~value:(dest + 1) ()

let fixed_port ~dest ~value _rng = Arrival.make ~dest ~value ()

let weighted_port ~weights ~value_of_port =
  let total = Array.fold_left ( +. ) 0.0 weights in
  fun rng ->
    let x = Rng.float rng *. total in
    let rec pick i acc =
      if i = Array.length weights - 1 then i
      else
        let acc = acc +. weights.(i) in
        if x < acc then i else pick (i + 1) acc
    in
    let dest = pick 0 0.0 in
    Arrival.make ~dest ~value:(value_of_port dest) ()

(* ----- sources ----- *)

type source = { process : process; label : label; label_rng : Rng.t }

let sources ~rng ~sources ~p_on_to_off ~p_off_to_on ~emission ~label =
  let sample = sample_of emission in
  List.init sources (fun _ ->
      let mmpp_rng = Rng.split rng and label_rng = Rng.split rng in
      {
        process = process ~rng:mmpp_rng ~p_on_to_off ~p_off_to_on ~sample;
        label;
        label_rng;
      })

let slot sources =
  let into = ref [] in
  List.iter
    (fun s ->
      for _ = 1 to step s.process do
        into := s.label s.label_rng :: !into
      done)
    sources;
  !into

let is_on s = s.process.on
