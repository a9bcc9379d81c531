open Smbm_prelude

let test_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* b is now one draw behind a; advancing b must not affect a. *)
  let next_a = Rng.bits64 (Rng.copy a) in
  ignore (Rng.bits64 b);
  Alcotest.(check int64) "streams independent" next_a (Rng.bits64 a)

let test_split_differs () =
  let a = Rng.create ~seed:11 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 4)

let test_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_in_bounds () =
  let rng = Rng.create ~seed:5 in
  let seen = Array.make 5 false in
  for _ = 1 to 2_000 do
    let x = Rng.int_in rng 3 7 in
    if x < 3 || x > 7 then Alcotest.fail "Rng.int_in out of bounds";
    seen.(x - 3) <- true
  done;
  Alcotest.(check bool) "all values in range reachable" true
    (Array.for_all Fun.id seen);
  Alcotest.check_raises "inverted range" (Invalid_argument "Rng.int_in: lo > hi")
    (fun () -> ignore (Rng.int_in rng 7 3))

let test_float_unit_interval () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "Rng.float out of [0, 1)"
  done

let mean_of n f =
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. f ()
  done;
  !total /. float_of_int n

let test_float_mean () =
  let rng = Rng.create ~seed:17 in
  let mean = mean_of 50_000 (fun () -> Rng.float rng) in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_bernoulli () =
  let rng = Rng.create ~seed:19 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng ~p:0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng ~p:1.0);
  let mean =
    mean_of 50_000 (fun () -> if Rng.bernoulli rng ~p:0.3 then 1.0 else 0.0)
  in
  Alcotest.(check bool) "p=0.3 frequency" true (abs_float (mean -. 0.3) < 0.01);
  match Rng.bernoulli rng ~p:Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p=NaN accepted"

let test_poisson_mean_small () =
  let rng = Rng.create ~seed:23 in
  let lambda = 2.5 in
  let mean = mean_of 50_000 (fun () -> float_of_int (Rng.poisson rng ~lambda)) in
  Alcotest.(check bool) "small-lambda mean" true
    (abs_float (mean -. lambda) < 0.05);
  Alcotest.(check int) "lambda=0" 0 (Rng.poisson rng ~lambda:0.0)

let test_poisson_mean_large () =
  let rng = Rng.create ~seed:29 in
  let lambda = 80.0 in
  let mean = mean_of 20_000 (fun () -> float_of_int (Rng.poisson rng ~lambda)) in
  Alcotest.(check bool) "large-lambda mean" true
    (abs_float (mean -. lambda) /. lambda < 0.01)

let test_exponential_mean () =
  let rng = Rng.create ~seed:31 in
  let mean = mean_of 50_000 (fun () -> Rng.exponential rng ~rate:2.0) in
  Alcotest.(check bool) "exponential mean 1/rate" true
    (abs_float (mean -. 0.5) < 0.01)

let test_geometric () =
  let rng = Rng.create ~seed:37 in
  Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng ~p:1.0);
  let mean =
    mean_of 50_000 (fun () -> float_of_int (Rng.geometric rng ~p:0.25))
  in
  (* failures before success: mean (1-p)/p = 3 *)
  Alcotest.(check bool) "geometric mean" true (abs_float (mean -. 3.0) < 0.1)

let test_choose () =
  let rng = Rng.create ~seed:41 in
  let arr = [| 'a'; 'b'; 'c' |] in
  for _ = 1 to 100 do
    let c = Rng.choose rng arr in
    if not (Array.mem c arr) then Alcotest.fail "choose outside array"
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

(* [Rng.float] converts its 53-bit operand through a native int; both
   conversions are exact below 2^53, so on every word of a stream, and at
   the largest operand, they agree and the draw equals the [Int64.to_float]
   formula bit for bit. *)
let prop_float_conversion_exact =
  QCheck2.Test.make ~name:"Rng.float = Int64.to_float of the 53 high bits"
    ~count:500 QCheck2.Gen.int
    (fun seed ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      let exact x = float_of_int (Int64.to_int x) = Int64.to_float x in
      exact 0x1F_FFFF_FFFF_FFFFL
      && List.for_all
           (fun _ ->
             let x = Int64.shift_right_logical (Rng.bits64 b) 11 in
             exact x
             && Rng.float a = Int64.to_float x *. (1.0 /. 9007199254740992.0))
           [ 1; 2; 3; 4; 5; 6; 7; 8 ])

(* The float test [Rng.bernoulli] stands for: no draw at or beyond the ends
   of [0, 1], otherwise [true] when the draw's float is below [p]. *)
let float_bernoulli rng p =
  if p <= 0.0 then false else if p >= 1.0 then true else Rng.float rng < p

(* [Rng.bernoulli] compares 53-bit integers: it must agree with the float
   test where an off-by-one threshold would not, at [p] equal to the next
   draw's own float and at its two neighbours, and at the probabilities
   nearest 0 and 1; it must also leave the stream where the float test
   does. *)
let prop_bernoulli_threshold_exact =
  QCheck2.Test.make ~name:"Rng.bernoulli = float test at the draw's own value"
    ~count:500 QCheck2.Gen.int
    (fun seed ->
      let r = Rng.create ~seed in
      List.for_all
        (fun _ ->
          let f = Rng.float (Rng.copy r) in
          let agrees p =
            let a = Rng.copy r and b = Rng.copy r in
            Rng.bernoulli a ~p = float_bernoulli b p && Rng.bits64 a = Rng.bits64 b
          in
          let ok =
            List.for_all agrees
              [ f; Float.pred f; Float.succ f; Float.pred 1.0; Float.succ 0.0;
                ldexp 1.0 (-60) ]
          in
          ignore (Rng.bits64 r);
          ok)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let prop_int_uniformity =
  QCheck2.Test.make ~name:"Rng.int covers its range" ~count:50
    QCheck2.Gen.(int_range 2 40)
    (fun bound ->
      let rng = Rng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* The parallel subsystem (Smbm_par) derives per-task seeds by splitting:
   its determinism-and-independence contract rests on split children not
   replaying each other's outputs.  SplitMix64 children are shifted copies
   of one 2^64-periodic permutation, so overlap over a prefix would require
   two child states to land within N gammas of each other — this property
   pins that down empirically for many parents and fans. *)
let prop_split_no_overlap =
  QCheck2.Test.make ~name:"Rng.split children pairwise non-overlapping"
    ~count:25
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, children) ->
      let draws = 512 in
      let parent = Rng.create ~seed in
      let seen = Hashtbl.create (children * draws) in
      let ok = ref true in
      for child = 0 to children - 1 do
        let rng = Rng.split parent in
        for _ = 1 to draws do
          let v = Rng.bits64 rng in
          (match Hashtbl.find_opt seen v with
          | Some other when other <> child -> ok := false
          | Some _ | None -> ());
          Hashtbl.replace seen v child
        done
      done;
      !ok)

(* Golden streams: the first outputs of every sampler at fixed seeds, as
   the boxed-state generator produced them.  Any change to the state
   representation, to a sampler's arithmetic or to its draw count or order
   (the two uniforms of the normal approximation included) breaks one of
   these lists. *)
module Golden = struct
  let bits64 = [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ]
  let split = [ 0xb8b4c2977eabce45L; 0x9c84dc3aae97b406L; 0xba42f571ab5a9e30L; 0xfca14a663f16d7e1L; 0x1024aced80457773L; 0x2a7522bf6a17c4bcL; 0x09b2dc44af257a06L; 0xd0ddddabb2c23a73L ]
  let float = [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1; 0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1; 0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1 ]
  let int_small = [ 2; 0; 3; 4; 1; 4; 0; 2 ]
  let int_rejecting = [ 1046394712501569526; 3000303097043014852; 2194929032479927936; 672077022357742823; 1996298423616916683; 2409350602284836739; 1246500532934115036; 1070487202542450493 ]
  let int_in = [ 6; -1; 0; -2; -3; -1; 4; 0 ]
  let bool = [ false; false; true; true; true; false; true; true ]
  let bernoulli = [ false; false; true; true; false; false; true; true ]
  let poisson_small = [ 4; 3; 4; 2; 0; 3; 3; 0 ]
  let poisson_large = [ 80; 82; 85; 93; 82; 83; 82; 91 ]
  let exponential = [ 0x1.15885f672794cp-6; 0x1.535d27f1378p-1; 0x1.1f7ffadadff1bp-4; 0x1.d7ff2d686da18p-1; 0x1.f0a4bd855d515p-1; 0x1.7cce0d8218a9cp+0; 0x1.8c58de32b1765p-1; 0x1.890f5031801fep-1 ]
  let geometric = [ 1; 1; 3; 2; 0; 2; 0; 5 ]
  let pareto_int = [ 2; 10; 1; 7; 4; 1; 1; 3 ]
  let after_mixed = [ 0xb9d34b092e6ad297L; 0xf76f69338032a9d5L; 0x4731f9068e746affL; 0x4f06b213b6db0d65L; 0x2ba651632941f280L; 0xed2fbd9fb6ac4219L; 0xb78a9b07e3fccacfL; 0x2e3e12084e4f0e0bL ]
end

let test_golden_streams () =
  let draws f = List.init 8 (fun _ -> f ()) in
  let seeded seed = Rng.create ~seed in
  let exact = Alcotest.float 0.0 in
  let r = seeded 42 in
  Alcotest.(check (list int64)) "bits64" Golden.bits64 (draws (fun () -> Rng.bits64 r));
  let p = seeded 7 in
  Alcotest.(check (list int64)) "split" Golden.split
    (draws (fun () ->
         let c = Rng.split p in
         ignore (Rng.bits64 p);
         Rng.bits64 c));
  let r = seeded 1 in
  Alcotest.(check (list exact)) "float" Golden.float (draws (fun () -> Rng.float r));
  let r = seeded 2 in
  Alcotest.(check (list int)) "int" Golden.int_small (draws (fun () -> Rng.int r 7));
  let r = seeded 3 in
  Alcotest.(check (list int)) "int, rejecting a quarter" Golden.int_rejecting
    (draws (fun () -> Rng.int r (3 lsl 60)));
  let r = seeded 4 in
  Alcotest.(check (list int)) "int_in" Golden.int_in
    (draws (fun () -> Rng.int_in r (-3) 6));
  let r = seeded 5 in
  Alcotest.(check (list bool)) "bool" Golden.bool (draws (fun () -> Rng.bool r));
  let r = seeded 6 in
  Alcotest.(check (list bool)) "bernoulli" Golden.bernoulli
    (draws (fun () -> Rng.bernoulli r ~p:0.3));
  let r = seeded 8 in
  Alcotest.(check (list int)) "poisson, product method" Golden.poisson_small
    (draws (fun () -> Rng.poisson r ~lambda:2.5));
  let r = seeded 9 in
  Alcotest.(check (list int)) "poisson, normal approximation"
    Golden.poisson_large
    (draws (fun () -> Rng.poisson r ~lambda:80.0));
  let r = seeded 10 in
  Alcotest.(check (list exact)) "exponential" Golden.exponential
    (draws (fun () -> Rng.exponential r ~rate:2.0));
  let r = seeded 11 in
  Alcotest.(check (list int)) "geometric" Golden.geometric
    (draws (fun () -> Rng.geometric r ~p:0.25));
  let r = seeded 12 in
  Alcotest.(check (list int)) "pareto_int" Golden.pareto_int
    (draws (fun () -> Rng.pareto_int r ~alpha:1.2 ~max:1000));
  (* Draw counts: the stream left after a mix of calls, including the
     draw-free edge cases. *)
  let r = seeded 13 in
  Alcotest.(check (list int64)) "draw counts" Golden.after_mixed
    (draws (fun () ->
         ignore (Rng.poisson r ~lambda:45.0);
         ignore (Rng.poisson r ~lambda:0.7);
         ignore (Rng.int r 1000);
         ignore (Rng.pareto_int r ~alpha:1.5 ~max:50);
         ignore (Rng.bernoulli r ~p:1.0);
         ignore (Rng.bernoulli r ~p:0.0);
         ignore (Rng.geometric r ~p:1.0);
         Rng.bits64 r))

let suite =
  [
    Alcotest.test_case "golden streams" `Quick test_golden_streams;
    Alcotest.test_case "determinism by seed" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy preserves stream" `Quick test_copy_independent;
    Alcotest.test_case "split gives distinct stream" `Quick test_split_differs;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "float in unit interval" `Quick test_float_unit_interval;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli" `Quick test_bernoulli;
    Alcotest.test_case "poisson small lambda" `Quick test_poisson_mean_small;
    Alcotest.test_case "poisson large lambda" `Quick test_poisson_mean_large;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "geometric" `Quick test_geometric;
    Alcotest.test_case "choose" `Quick test_choose;
    Qc.to_alcotest prop_int_uniformity;
    Qc.to_alcotest prop_float_conversion_exact;
    Qc.to_alcotest prop_bernoulli_threshold_exact;
    Qc.to_alcotest prop_split_no_overlap;
  ]
