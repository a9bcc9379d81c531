(* SplitMix64 (Steele, Lea & Flood 2014).  A generator's whole state is one
   64-bit word, kept unboxed in bytes: a [t] is an 8-byte string and a
   {!Bank} is a column of such words.  Every sampler below works on a
   (bytes, offset) pair and is inlined, so a draw allocates nothing; the
   public functions are the offset-0 instances.  [-opaque] builds never
   inline across compilation units, which is why the bank's per-slot loop
   lives here, next to the one SplitMix64 step it calls.

   The bank's contract is per source, not per bank: each source's process
   word and label word see their draws in a fixed order, a slot's arrivals
   land in source order, and the on/off column holds each source's state
   after the slot.  Sources share no word, so the order in which
   {!Bank.fill} steps them is free, and it steps them in two passes. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let word seed =
  let s = Bytes.create 8 in
  set64 s 0 seed;
  s

let create ~seed = word (Int64.of_int seed)
let copy = Bytes.copy

(* SplitMix64 output function. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* The SplitMix64 step: advance the word at byte offset [o] of [s] and
   return its output. *)
let[@inline] next s o =
  let state = Int64.add (get64 s o) golden_gamma in
  set64 s o state;
  mix state

(* The 53 high bits of a draw, as a native int in [0, 2^53). *)
let[@inline] bits53_at s o = Int64.to_int (Int64.shift_right_logical (next s o) 11)

let two53 = 1 lsl 53

(* 53 high bits scaled to [0, 1).  [float_of_int] converts the 53-bit
   operand exactly and inline, where [Int64.to_float] is a C call per
   draw. *)
let[@inline] float_at s o = float_of_int (bits53_at s o) *. (1.0 /. 9007199254740992.0)

(* Uniform on [0, bound), rejection sampling to avoid modulo bias. *)
let[@inline] int_at s o bound =
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.sub bound64 1L) in
  let r = ref (Int64.shift_right_logical (next s o) 1) in
  let v = ref (Int64.rem !r bound64) in
  while Int64.sub !r !v > limit do
    r := Int64.shift_right_logical (next s o) 1;
    v := Int64.rem !r bound64
  done;
  Int64.to_int !v

(* A Bernoulli probability as the integer a 53-bit draw is compared
   against.  For [p] in (0, 1) it is [ceil (p * 2^53)], in [1, 2^53): the
   product is exact (a power-of-two scaling) and a draw [u] satisfies
   [u < ceil (p * 2^53)] exactly when [u * 2^-53 < p], the test on
   {!float_at}.  [p <= 0] and [p >= 1] map to 0 and 2^53, the two
   thresholds that draw nothing.  NaN has no threshold. *)
let threshold p =
  if Float.is_nan p then invalid_arg "Rng: probability is NaN";
  if p <= 0.0 then 0 else if p >= 1.0 then two53
  else int_of_float (Float.ceil (p *. 9007199254740992.0))

(* The one Bernoulli draw: [true] with probability [thr / 2^53].  The
   thresholds 0 and 2^53 (those of [p <= 0] and [p >= 1]) have no bit below
   2^53 set; they draw nothing, and the comparison of the undrawn 0 then
   reads [false] and [true].  Every other threshold draws. *)
let[@inline] bernoulli_at s o thr =
  let u = if thr land (two53 - 1) = 0 then 0 else bits53_at s o in
  u < thr

(* Poisson with mean [lambda] >= 0; [limit] is [exp (-. lambda)].  No draw
   for a zero mean, Knuth's product method for small means, a normal
   approximation with continuity correction (adequate for traffic
   generation) for large ones.  The Box-Muller normal draws [u1] before
   [u2]. *)
let[@inline] poisson_at s o ~lambda ~limit =
  if lambda = 0.0 then 0
  else if lambda < 30.0 then begin
    let k = ref 0 and prod = ref (float_at s o) in
    while !prod > limit do
      incr k;
      prod := !prod *. float_at s o
    done;
    !k
  end
  else begin
    let u1 = 1.0 -. float_at s o in
    let u2 = float_at s o in
    let normal = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    let x = (normal *. sqrt lambda) +. lambda +. 0.5 in
    if x < 0.0 then 0 else int_of_float x
  end

(* [floor (U^(-1/alpha))] clamped to [cap]; [exponent] is [-1 /. alpha]. *)
let[@inline] pareto_at s o ~exponent ~cap =
  let x = Float.pow (1.0 -. float_at s o) exponent in
  if x >= float_of_int cap then cap else int_of_float x

let bits64 t = next t 0
let split t = word (next t 0)
let float t = float_at t 0

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_at t 0 bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t 0) 1L = 1L
let bernoulli t ~p = bernoulli_at t 0 (threshold p)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float t in
  -.log u /. rate

let poisson t ~lambda =
  if lambda < 0.0 then invalid_arg "Rng.poisson: lambda must be non-negative";
  poisson_at t 0 ~lambda ~limit:(exp (-.lambda))

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let pareto_int t ~alpha ~max:cap =
  if alpha <= 0.0 then invalid_arg "Rng.pareto_int: alpha must be positive";
  if cap < 1 then invalid_arg "Rng.pareto_int: max must be >= 1";
  pareto_at t 0 ~exponent:(-1.0 /. alpha) ~cap

let pareto_int_mean ~alpha ~max:cap =
  if alpha <= 0.0 then invalid_arg "Rng.pareto_int_mean: alpha must be positive";
  if cap < 1 then invalid_arg "Rng.pareto_int_mean: max must be >= 1";
  (* E[X] = sum_(x=1..max) P(X >= x) = sum x^(-alpha). *)
  let mean = ref 0.0 in
  for x = 1 to cap do
    mean := !mean +. Float.pow (float_of_int x) (-.alpha)
  done;
  !mean

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

type rng = t

module Bank = struct
  type label =
    | Uniform_port of int
    | Uniform_port_and_value of { n : int; k : int }
    | Value_equals_port of int
    | Fixed of { dest : int; value : int }
    | Weighted of { cumulative : float array; value_of_port : int array }

  type t = {
    sources : int;
    words : rng;
        (* two SplitMix64 words per source: process at [16 i], label at
           [16 i + 8] *)
    on : Bytes.t;  (* one byte per source, 0 or 1 *)
    active : int array;  (* [fill]'s list of the sources that are on *)
    off_to_on : int;  (* {!threshold}s of the transition probabilities *)
    on_to_off : int;
    lambda : float;  (* Poisson mean *)
    limit : float;  (* exp (-. lambda) *)
    batch : int;  (* threshold of the Pareto batch's probability *)
    exponent : float;  (* -1 /. alpha *)
    cap : int;  (* Pareto cap *)
    label : label;
    mutable dest : int array;
    mutable value : int array;
    mutable len : int;
  }

  let stationary_on ~p_on_to_off ~p_off_to_on =
    if p_on_to_off +. p_off_to_on = 0.0 then 0.5
    else p_off_to_on /. (p_on_to_off +. p_off_to_on)

  let invalid fmt = Printf.ksprintf invalid_arg ("Rng.Bank.create: " ^^ fmt)

  (* The values that have no threshold or no Poisson limit, and the shapes
     the loop indexes or divides by; the traffic-level checks live in the
     constructors of [Smbm_traffic]. *)
  let check_probability what p =
    if not (p >= 0.0 && p <= 1.0) then invalid "%s must be in [0, 1], got %h" what p

  let check_label = function
    | Uniform_port n | Value_equals_port n ->
      if n < 1 then invalid "n must be >= 1"
    | Uniform_port_and_value { n; k } ->
      if n < 1 || k < 1 then invalid "n, k must be >= 1"
    | Fixed _ -> ()
    | Weighted { cumulative; value_of_port } ->
      if Array.length cumulative = 0
         || Array.length value_of_port <> Array.length cumulative
      then invalid "weighted arrays must be non-empty and equal"

  let create ~rng ~sources ~p_on_to_off ~p_off_to_on ~lambda ~batch_p ~alpha
      ~max_batch ~label =
    if sources < 0 then invalid "sources must be >= 0";
    if max_batch < 1 then invalid "max_batch must be >= 1";
    check_probability "p_on_to_off" p_on_to_off;
    check_probability "p_off_to_on" p_off_to_on;
    check_probability "batch_p" batch_p;
    if not (Float.is_finite lambda && lambda >= 0.0) then
      invalid "lambda must be finite and >= 0, got %h" lambda;
    check_label label;
    let words = Bytes.create (16 * sources) in
    let on = Bytes.make sources '\000' in
    let start = threshold (stationary_on ~p_on_to_off ~p_off_to_on) in
    for i = 0 to sources - 1 do
      set64 words (16 * i) (next rng 0);
      set64 words ((16 * i) + 8) (next rng 0);
      if bernoulli_at words (16 * i) start then Bytes.set on i '\001'
    done;
    {
      sources;
      words;
      on;
      active = Array.make sources 0;
      off_to_on = threshold p_off_to_on;
      on_to_off = threshold p_on_to_off;
      lambda;
      limit = exp (-.lambda);
      batch = threshold batch_p;
      exponent = -1.0 /. alpha;
      cap = max_batch;
      label;
      dest = Array.make 64 0;
      value = Array.make 64 0;
      len = 0;
    }

  let sources t = t.sources
  let is_on t i = Bytes.get t.on i <> '\000'
  let dest t = t.dest
  let value t = t.value

  let reserve t extra =
    let need = t.len + extra in
    if need > Array.length t.dest then begin
      let capacity = max need (2 * Array.length t.dest) in
      let extend a = Array.append a (Array.make (capacity - Array.length a) 0) in
      t.dest <- extend t.dest;
      t.value <- extend t.value
    end

  (* The on-state emission of the source whose process word is at [o].  The
     Poisson count is drawn first: it is the right operand of the sum the
     heavy-tail sampler has always computed, and OCaml evaluates operands
     right to left.  A zero mean and a batch probability of 0 or 1 draw
     nothing, so the plain Poisson, thinned and topped-up laws each keep
     their own stream. *)
  let[@inline] emit t o =
    let w = t.words in
    let extra = poisson_at w o ~lambda:t.lambda ~limit:t.limit in
    if bernoulli_at w o t.batch then
      pareto_at w o ~exponent:t.exponent ~cap:t.cap + extra
    else extra

  (* Append [count] labels drawn from the label word at [o]. *)
  let labels t o count =
    reserve t count;
    let w = t.words and dest = t.dest and value = t.value in
    let first = t.len and last = t.len + count - 1 in
    (match t.label with
    | Uniform_port n ->
      for j = first to last do
        dest.(j) <- int_at w o n;
        value.(j) <- 1
      done
    | Uniform_port_and_value { n; k } ->
      (* Port, then value: the stream-order contract. *)
      for j = first to last do
        let d = int_at w o n in
        value.(j) <- 1 + int_at w o k;
        dest.(j) <- d
      done
    | Value_equals_port n ->
      for j = first to last do
        let d = int_at w o n in
        dest.(j) <- d;
        value.(j) <- d + 1
      done
    | Fixed { dest = d; value = v } ->
      for j = first to last do
        dest.(j) <- d;
        value.(j) <- v
      done
    | Weighted { cumulative; value_of_port } ->
      let top = Array.length cumulative - 1 in
      let total = cumulative.(top) in
      for j = first to last do
        let x = float_at w o *. total in
        let d = ref 0 in
        while !d < top && not (x < cumulative.(!d)) do
          incr d
        done;
        dest.(j) <- !d;
        value.(j) <- value_of_port.(!d)
      done);
    t.len <- last + 1

  (* Pass 1 steps every source's on/off state with no branch on the data:
     the state (0 or 1) picks its flip threshold arithmetically, the flip
     is xor-ed in, and every source is written to the active list's next
     free cell, which the list keeps only when the source is on.  The
     draw's own branch ({!bernoulli_at}) is taken the same way for every
     source unless a probability is 0 or 1.  Pass 2 runs the emissions of
     the listed sources in index order, so the arrivals land in source
     order. *)
  let fill t =
    t.len <- 0;
    let w = t.words and on = t.on and active = t.active in
    let off_to_on = t.off_to_on and delta = t.on_to_off - t.off_to_on in
    let n = ref 0 in
    for i = 0 to t.sources - 1 do
      let was = Char.code (Bytes.unsafe_get on i) in
      let flip = Bool.to_int (bernoulli_at w (16 * i) (off_to_on + (was * delta))) in
      let now = was lxor flip in
      Bytes.unsafe_set on i (Char.unsafe_chr now);
      Array.unsafe_set active !n i;
      n := !n + now
    done;
    for j = 0 to !n - 1 do
      let o = 16 * Array.unsafe_get active j in
      let count = emit t o in
      if count > 0 then labels t (o + 8) count
    done;
    t.len
end
