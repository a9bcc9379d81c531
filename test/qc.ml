(* All property tests run with a fixed random seed: failures are
   reproducible and CI is deterministic.  (QCheck still shrinks normally.) *)
let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed2024 |]) test

(* A value-level count k for the value-model properties: half the draws
   small (1-8, one bitset word), half at the 63-levels-per-word boundaries,
   so minima and maxima cross into a second and third bitset word. *)
let value_levels =
  QCheck2.Gen.(oneof [ int_range 1 8; oneofl [ 62; 63; 64; 126; 127 ] ])
