(* The moments live in an all-float record, which OCaml stores flat:
   assigning a field writes the raw double, where a float field of a mixed
   record would box a fresh one on every sample. *)
type moments = {
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable min : float;
  mutable max : float;
}

type t = { mutable n : int; f : moments }

let create () =
  { n = 0; f = { mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity } }

let clear t =
  t.n <- 0;
  t.f.mean <- 0.0;
  t.f.m2 <- 0.0;
  t.f.min <- infinity;
  t.f.max <- neg_infinity

(* Welford's update.  Inlined into every entry point, so [add_int]'s and
   [add_scaled]'s converted sample never crosses a call boxed (the build
   has no flambda). *)
let[@inline] welford t x =
  t.n <- t.n + 1;
  let f = t.f in
  let delta = x -. f.mean in
  f.mean <- f.mean +. (delta /. float_of_int t.n);
  f.m2 <- f.m2 +. (delta *. (x -. f.mean));
  if x < f.min then f.min <- x;
  if x > f.max then f.max <- x

let add t x = welford t x
let add_int t x = welford t (float_of_int x)
let add_scaled t x scale = welford t (float_of_int x *. scale)

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.f.mean
let variance t = if t.n < 2 then 0.0 else t.f.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let min t =
  if t.n = 0 then invalid_arg "Running_stats.min: no samples";
  t.f.min

let max t =
  if t.n = 0 then invalid_arg "Running_stats.max: no samples";
  t.f.max

let sum t = t.f.mean *. float_of_int t.n

let copy { n; f = { mean; m2; min; max } } = { n; f = { mean; m2; min; max } }

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let n = a.n + b.n in
    let delta = b.f.mean -. a.f.mean in
    let nf = float_of_int n in
    let mean = a.f.mean +. (delta *. float_of_int b.n /. nf) in
    let m2 =
      a.f.m2 +. b.f.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
    in
    {
      n;
      f =
        {
          mean;
          m2;
          min = Float.min a.f.min b.f.min;
          max = Float.max a.f.max b.f.max;
        };
    }
  end

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.n (mean t)
      (stddev t) t.f.min t.f.max
