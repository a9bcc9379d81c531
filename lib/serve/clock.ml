let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9
