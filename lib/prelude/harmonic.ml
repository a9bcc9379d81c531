let euler_gamma = 0.57721566490153286

(* Memo: an immutable, fully filled array with [t.(i) = H_i], published
   through an [Atomic] so pool domains can read and grow it concurrently.  A
   grow builds a whole new, longer array and publishes it; every entry is
   the same left-to-right recurrence, so a domain that loses the race only
   recomputed identical values. *)
let table = Atomic.make [| 0.0 |]

let rec ensure n =
  let t = Atomic.get table in
  if n < Array.length t then t
  else begin
    let len = Array.length t in
    let t' = Array.make (max (n + 1) (2 * len)) 0.0 in
    Array.blit t 0 t' 0 len;
    for i = len to Array.length t' - 1 do
      t'.(i) <- t'.(i - 1) +. (1.0 /. float_of_int i)
    done;
    if Atomic.compare_and_set table t t' then t' else ensure n
  end

let h n =
  if n < 0 then invalid_arg "Harmonic.h: negative";
  (ensure n).(n)

let h_range lo hi =
  if lo < 1 then invalid_arg "Harmonic.h_range: lo must be >= 1";
  if lo > hi then 0.0 else h hi -. h (lo - 1)

let approx n =
  let nf = float_of_int n in
  log nf +. euler_gamma +. (1.0 /. (2.0 *. nf))
