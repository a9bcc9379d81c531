open Smbm_prelude

type t = Rng.Bank.label

let check_ports what n =
  if n < 1 then invalid_arg ("Label." ^ what ^ ": n must be >= 1")

let uniform_port ~n =
  check_ports "uniform_port" n;
  Rng.Bank.Uniform_port n

let uniform_port_and_value ~n ~k =
  check_ports "uniform_port_and_value" n;
  if k < 1 then invalid_arg "Label.uniform_port_and_value: k must be >= 1";
  Rng.Bank.Uniform_port_and_value { n; k }

let value_equals_port ~n =
  check_ports "value_equals_port" n;
  Rng.Bank.Value_equals_port n

let fixed_port ~dest ?(value = 1) () =
  if dest < 0 then invalid_arg "Label.fixed_port: negative dest";
  if value < 1 then invalid_arg "Label.fixed_port: value must be >= 1";
  Rng.Bank.Fixed { dest; value }

let weighted_port ~weights ?(value_of_port = fun _ -> 1) () =
  if Array.length weights = 0 then invalid_arg "Label.weighted_port: empty";
  Array.iter
    (fun w ->
      if not (Float.is_finite w && w >= 0.0) then
        invalid_arg "Label.weighted_port: weights must be finite and >= 0")
    weights;
  (* Running sums in index order: the same additions, so the same floats,
     as summing the weights one by one. *)
  let cumulative = Array.copy weights in
  for i = 1 to Array.length cumulative - 1 do
    cumulative.(i) <- cumulative.(i - 1) +. cumulative.(i)
  done;
  if cumulative.(Array.length cumulative - 1) <= 0.0 then
    invalid_arg "Label.weighted_port: all weights zero";
  let value_of_port = Array.init (Array.length weights) value_of_port in
  if Array.exists (fun v -> v < 1) value_of_port then
    invalid_arg "Label.weighted_port: values must be >= 1";
  Rng.Bank.Weighted { cumulative; value_of_port }
