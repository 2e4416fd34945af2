(* Tests for Kfuse_util: Iset, Imap, Rng, Stats. *)

module Iset = Kfuse_util.Iset
module Imap = Kfuse_util.Imap
module Rng = Kfuse_util.Rng
module Stats = Kfuse_util.Stats

let test_iset_of_range () =
  Alcotest.check Helpers.iset "3..6" (Helpers.set_of [ 3; 4; 5; 6 ]) (Iset.of_range 3 6);
  Alcotest.check Helpers.iset "singleton" (Helpers.set_of [ 2 ]) (Iset.of_range 2 2);
  Alcotest.check Helpers.iset "empty when hi < lo" Iset.empty (Iset.of_range 5 4)

let test_iset_sorted () =
  Alcotest.(check (list int))
    "sorted" [ 1; 2; 9 ]
    (Iset.to_sorted_list (Helpers.set_of [ 9; 1; 2 ]))

let test_iset_pp () =
  Alcotest.(check string)
    "render" "{1, 2, 5}"
    (Format.asprintf "%a" Iset.pp (Helpers.set_of [ 5; 1; 2 ]))

let test_imap_find_or () =
  let m = Imap.add 1 "a" Imap.empty in
  Alcotest.(check string) "hit" "a" (Imap.find_or ~default:"z" 1 m);
  Alcotest.(check string) "miss" "z" (Imap.find_or ~default:"z" 2 m)

let test_imap_keys () =
  let m = Imap.empty |> Imap.add 3 () |> Imap.add 1 () |> Imap.add 2 () in
  Alcotest.(check (list int)) "keys sorted" [ 1; 2; 3 ] (Imap.keys m)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "nonpositive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 5 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.check (Helpers.float_close ~eps:0.05 ()) "mean ~ 0" 0.0 mean;
  Alcotest.check (Helpers.float_close ~eps:0.05 ()) "var ~ 1" 1.0 var

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies agree" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing [a] must not affect a fresh copy's determinism *)
  let c = Rng.copy a in
  Alcotest.(check int64) "copy from advanced state" (Rng.bits64 a) (Rng.bits64 c)

(* The first 64 outputs of each draw, from a fresh generator per seed:
   the first value literally, all 64 as an MD5 of their printed forms
   ([%h] for floats, so every bit counts).  Any change to the state
   layout or the arithmetic must reproduce these exactly — every seeded
   image, test case and benchmark request depends on them. *)
let rng_golden =
  [
    ( 0, -7355399402456485196L, 0x1.33d8be6d96ebep-1, 437233,
      "39a4ca52b79c2acedcf2cd87d675fadc", "006a8a11c7eea9c3d37d8e644475e7ab",
      "e4a9d002b58fd54aa3e80f226bc9a787" );
    ( 1, -5480124913605472059L, 0x1.67e55eda1f8e2p-1, 649235,
      "6cdaf6fb4f61e18885427e13fabf4a07", "0fdcb0e9c06d89388ff304044118e733",
      "0ab36df76fb4702fac641206c41cfb9d" );
    ( 42, 1546998764402558742L, 0x1.5780b2e0c2ecp-4, 94241,
      "d0961594824316333370c1bb794476bc", "9d0dfce5f9df63bc9403c2d6951886ab",
      "052bd0222e0d096e61160c04aae25d03" );
    ( max_int, 7651040205805895144L, 0x1.a8b7d21ef52aep-2, 68441,
      "7f5f0e9b828c531267b53b88b033611a", "b44b4cf76222d77e8104422d93288812",
      "70f3b5507e79108d166052725557adbf" );
  ]

let test_rng_golden () =
  let digest64 f =
    let b = Buffer.create 4096 in
    for _ = 1 to 64 do
      Buffer.add_string b (f ());
      Buffer.add_char b '\n'
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (seed, first_bits, first_float, first_int, d_bits, d_float, d_int) ->
      let what s = Printf.sprintf "seed %d: %s" seed s in
      let bits t = Rng.bits64 t and flt t = Rng.float t 1.0 and int t = Rng.int t 1_000_003 in
      Alcotest.(check int64) (what "first bits64") first_bits (bits (Rng.create seed));
      Alcotest.(check (float 0.0)) (what "first float") first_float (flt (Rng.create seed));
      Alcotest.(check int) (what "first int") first_int (int (Rng.create seed));
      let t = Rng.create seed in
      Alcotest.(check string) (what "64 bits64") d_bits
        (digest64 (fun () -> Printf.sprintf "%Ld" (bits t)));
      let t = Rng.create seed in
      Alcotest.(check string) (what "64 floats") d_float
        (digest64 (fun () -> Printf.sprintf "%h" (flt t)));
      let t = Rng.create seed in
      Alcotest.(check string) (what "64 ints") d_int
        (digest64 (fun () -> Printf.sprintf "%d" (int t))))
    rng_golden

let test_stats_summary () =
  let s = Stats.summarize [| 4.0; 1.0; 3.0; 2.0; 5.0 |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  Alcotest.check (Helpers.float_close ()) "min" 1.0 s.Stats.min;
  Alcotest.check (Helpers.float_close ()) "max" 5.0 s.Stats.max;
  Alcotest.check (Helpers.float_close ()) "median" 3.0 s.Stats.median;
  Alcotest.check (Helpers.float_close ()) "p25" 2.0 s.Stats.p25;
  Alcotest.check (Helpers.float_close ()) "p75" 4.0 s.Stats.p75;
  Alcotest.check (Helpers.float_close ()) "mean" 3.0 s.Stats.mean

let test_stats_percentile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  Alcotest.check (Helpers.float_close ()) "median interpolates" 5.0
    (Stats.percentile 50.0 sorted);
  Alcotest.check (Helpers.float_close ()) "p25" 2.5 (Stats.percentile 25.0 sorted)

let test_stats_single () =
  let s = Stats.summarize [| 7.5 |] in
  Alcotest.check (Helpers.float_close ()) "all equal" 7.5 s.Stats.median;
  Alcotest.check (Helpers.float_close ()) "p25 = value" 7.5 s.Stats.p25

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty array") (fun () ->
      ignore (Stats.summarize [||]))

let test_geomean () =
  Alcotest.check (Helpers.float_close ()) "geomean of 1,4" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.check (Helpers.float_close ()) "geomean of equal" 3.0
    (Stats.geomean [ 3.0; 3.0; 3.0 ]);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geomean: nonpositive element") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let suite =
  [
    Alcotest.test_case "Iset.of_range" `Quick test_iset_of_range;
    Alcotest.test_case "Iset.to_sorted_list" `Quick test_iset_sorted;
    Alcotest.test_case "Iset.pp" `Quick test_iset_pp;
    Alcotest.test_case "Imap.find_or" `Quick test_imap_find_or;
    Alcotest.test_case "Imap.keys" `Quick test_imap_keys;
    Alcotest.test_case "Rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "Rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "Rng.int range" `Quick test_rng_int_range;
    Alcotest.test_case "Rng.int invalid bound" `Quick test_rng_int_invalid;
    Alcotest.test_case "Rng.float range" `Quick test_rng_float_range;
    Alcotest.test_case "Rng.gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "Rng.copy" `Quick test_rng_copy_independent;
    Alcotest.test_case "Rng golden sequences" `Quick test_rng_golden;
    Alcotest.test_case "Stats.summarize" `Quick test_stats_summary;
    Alcotest.test_case "Stats.percentile interpolation" `Quick test_stats_percentile_interpolation;
    Alcotest.test_case "Stats single sample" `Quick test_stats_single;
    Alcotest.test_case "Stats empty input" `Quick test_stats_empty;
    Alcotest.test_case "Stats.geomean" `Quick test_geomean;
  ]
