(* Tests of the benchmark itself: seeded request generation, the
   percentile guard, the metric names against BENCHMARK.json, and a
   tiny-extent smoke run of every workload (untraced and traced). *)

open Kbench
module J = Kfuse_service.Jsonx
module P = Kfuse_service.Protocol

let render req = J.to_string (P.request_to_json req)

let oneshot_bytes seed =
  let g = Reqgen.oneshot_gen ~seed in
  List.init 60 (fun _ -> render (Reqgen.oneshot_request Reqgen.full (g ())))

let plan_bytes seed =
  let g = Reqgen.plan_gen ~seed Reqgen.full in
  let dag = Reqgen.dag_source Reqgen.full.Reqgen.lazy_extent in
  List.init 200 (fun _ ->
      render (Reqgen.plan_request ~dag ~id_of:(Printf.sprintf "lz-%d") (g ())))

let stream_bytes seed =
  List.map
    (fun (app, s) -> render (Reqgen.stream_open Reqgen.full ~app ~seed:s))
    (Reqgen.stream_seeds ~seed)

let test_same_seed () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list string)) (name ^ ": same seed, same bytes") (f 7) (f 7);
      Alcotest.(check bool) (name ^ ": another seed differs") false (f 7 = f 8))
    [ ("oneshot", oneshot_bytes); ("stream", stream_bytes); ("plan", plan_bytes) ]

let test_plan_mix () =
  let g = Reqgen.plan_gen ~seed:3 Reqgen.full in
  let steps = List.init 400 (fun _ -> g ()) in
  let fuses = List.filter_map (function Reqgen.Fuse f -> Some f.repeat | _ -> None) steps in
  let repeats = List.length (List.filter Fun.id fuses) in
  let n = List.length fuses in
  Alcotest.(check bool) "about half the fuse requests are repeats" true
    (abs ((2 * repeats) - n) <= 8);
  Alcotest.(check bool) "lazy ops are interleaved" true (List.length fuses < 400)

let test_percentile () =
  let xs n = List.init n float_of_int in
  Alcotest.(check bool) "p90 of 99 samples is refused" true
    (Result.is_error (Pct.percentile ~p:90.0 (xs 99)));
  Alcotest.(check (result (float 0.0) string)) "p90 of 100 samples" (Ok 89.0)
    (Pct.percentile ~p:90.0 (xs 100));
  Alcotest.(check int) "samples needed for p90" 100 (Pct.samples_needed ~p:90.0);
  Alcotest.(check bool) "p50 of 15 samples is refused" true
    (Result.is_error (Pct.percentile ~p:50.0 (xs 15)))

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  match J.of_string s with Ok v -> v | Error e -> Alcotest.fail e

let declared key =
  List.map
    (fun m ->
      ( Option.get (J.mem_str "name" m),
        Option.get (J.mem_str "unit" m),
        Option.get (J.mem_str "better" m) ))
    (Option.get (Option.bind (J.member key (benchmark_json ())) J.arr))

let triples = List.map (fun m -> (m.Bench.name, m.Bench.unit_, m.Bench.better))

let test_names () =
  let t = Alcotest.(list (triple string string string)) in
  Alcotest.check t "end_to_end" (declared "end_to_end") (triples Bench.end_to_end);
  Alcotest.check t "per_layer" (declared "per_layer") (triples Bench.per_layer);
  Alcotest.(check (list string)) "workloads" Bench.workloads
    (List.map
       (fun w -> Option.get (J.mem_str "name" w))
       (Option.get (Option.bind (J.member "workloads" (benchmark_json ())) J.arr)))

let smoke workload trace () =
  let base = "smoke-run" in
  let cfg =
    {
      Bench.workload;
      seed = 11;
      seconds = 1.0;
      trace;
      kfusec = "../../bin/kfusec.exe";
      sizes = Reqgen.smoke;
      base;
      out_dir = ".";
    }
  in
  let r = Bench.run cfg in
  List.iter print_endline (Bench.report r);
  Alcotest.(check bool) "correct" true r.Bench.correct;
  Alcotest.(check int) "failed" 0 r.Bench.failed;
  Alcotest.(check bool) "attempted" true (r.Bench.attempted > 0);
  Alcotest.(check (list string)) "printed metric names"
    (List.map (fun m -> m.Bench.name) (if trace then Bench.per_layer else Bench.end_to_end))
    (match J.member "metrics" (Bench.result_json r) with
    | Some (J.Obj l) -> List.map fst l
    | _ -> []);
  Alcotest.(check (list string)) "run roots removed" []
    (Array.to_list (try Sys.readdir base with Sys_error _ -> [||]))

let () =
  Alcotest.run "kbench"
    [
      ( "requests",
        [
          Alcotest.test_case "same seed, same request bytes" `Quick test_same_seed;
          Alcotest.test_case "plan mix" `Quick test_plan_mix;
        ] );
      ("percentile", [ Alcotest.test_case "tail guard" `Quick test_percentile ]);
      ("names", [ Alcotest.test_case "metrics match BENCHMARK.json" `Quick test_names ]);
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " untraced") `Slow (smoke w false);
              Alcotest.test_case (w ^ " traced") `Slow (smoke w true);
            ])
          Bench.workloads );
    ]
