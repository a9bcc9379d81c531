open Smbm_prelude
open Smbm_core

type emission =
  | Poisson of float
  | Heavy_tail of { alpha : float; max_batch : int; mean : float }

type t = { bank : Rng.Bank.t; duty_cycle : float; on_mean : float }

let invalid fmt = Printf.ksprintf invalid_arg ("Source_bank.create: " ^^ fmt)

let check_mean what x =
  if not (Float.is_finite x && x >= 0.0) then
    invalid "%s must be finite and >= 0, got %h" what x

(* The transition probabilities are checked by [Rng.Bank.create]. *)
let create ~rng ~sources ~p_on_to_off ~p_off_to_on ~emission ~label =
  (* The kernel's emission is a Poisson count plus a Pareto batch with
     probability [batch_p].  The heavy tail's batches are thinned when
     their raw mean exceeds the target, topped up with an independent
     Poisson otherwise. *)
  let on_mean, lambda, batch_p, alpha, max_batch =
    match emission with
    | Poisson rate ->
      check_mean "rate" rate;
      (rate, rate, 0.0, 1.0, 1)
    | Heavy_tail { alpha; max_batch; mean } ->
      if not (Float.is_finite alpha && alpha > 0.0) then
        invalid "alpha must be finite and > 0, got %h" alpha;
      if max_batch < 1 then invalid "max_batch must be >= 1";
      check_mean "mean" mean;
      let raw_mean = Rng.pareto_int_mean ~alpha ~max:max_batch in
      if mean <= raw_mean then (mean, 0.0, mean /. raw_mean, alpha, max_batch)
      else (mean, mean -. raw_mean, 1.0, alpha, max_batch)
  in
  {
    bank =
      Rng.Bank.create ~rng ~sources ~p_on_to_off ~p_off_to_on ~lambda ~batch_p
        ~alpha ~max_batch ~label:(label : Label.t :> Rng.Bank.label);
    duty_cycle = Rng.Bank.stationary_on ~p_on_to_off ~p_off_to_on;
    on_mean;
  }

let fill t batch =
  let len = Rng.Bank.fill t.bank in
  Arrival_batch.push_rev batch ~dest:(Rng.Bank.dest t.bank)
    ~value:(Rng.Bank.value t.bank) ~len

let sources t = Rng.Bank.sources t.bank
let is_on t i = Rng.Bank.is_on t.bank i
let duty_cycle t = t.duty_cycle

(* Summed source by source, in source order, as the rate of a list of
   independent sources always was. *)
let mean_rate t =
  let per_source = t.duty_cycle *. t.on_mean in
  let total = ref 0.0 in
  for _ = 1 to sources t do
    total := !total +. per_source
  done;
  !total
