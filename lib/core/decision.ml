type t = int

let accept = -1
let drop = -2

let push_out victim =
  if victim < 0 then invalid_arg "Decision.push_out: negative victim";
  victim

let is_accept d = d = accept
let is_drop d = d = drop
let is_push_out d = d >= 0

let victim d =
  if d < 0 then invalid_arg "Decision.victim: not a push-out";
  d

let pp ppf d =
  if d = accept then Format.pp_print_string ppf "accept"
  else if d = drop then Format.pp_print_string ppf "drop"
  else Format.fprintf ppf "push-out(Q%d)" d

let equal (a : t) b = a = b
