(* kbench: end-to-end kfused benchmark.

     kbench --workload oneshot|stream|plan|all --seed N --seconds S --trace 0|1

   Spawns a fresh [kfusec serve] per set-up, drives the workload over its
   Unix socket, checks every answer, and prints a human report on stderr
   and, as the last line of stdout, one JSON object with the metrics
   ([--trace 0]: end-to-end, [--trace 1]: per-layer).  Scratch lives in
   .kbench-run/ (removed on exit); trace and result files go to
   .kbench-out/. *)

let usage = "kbench --workload oneshot|stream|plan|all --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let kfusec = ref "_build/default/bin/kfusec.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME oneshot, stream, plan or all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--kfusec", Arg.Set_string kfusec, "PATH the kfusec binary to serve with");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = if !workload = "all" then Kbench.Bench.workloads else [ !workload ] in
  if
    List.exists (fun w -> not (List.mem w Kbench.Bench.workloads)) names
    || (!trace <> 0 && !trace <> 1)
    || !seconds <= 0.0
  then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists !kfusec) then begin
    Printf.eprintf "kbench: no kfusec binary at %s\n" !kfusec;
    exit 2
  end;
  let base = ".kbench-run" and out_dir = ".kbench-out" in
  Kbench.Kfused.mkdir_p out_dir;
  (* Everything this process and its children write stays in the
     checkout: the traced replay's compiler probes and plan runs included. *)
  let tmp = Filename.concat (Sys.getcwd ()) (Filename.concat base (Printf.sprintf "tmp-%d" (Unix.getpid ()))) in
  Kbench.Kfused.mkdir_p tmp;
  Filename.set_temp_dir_name tmp;
  Unix.putenv "TMPDIR" tmp;
  let stop = Sys.Signal_handle (fun _ -> Atomic.set Kbench.Bench.interrupted true) in
  Sys.set_signal Sys.sigterm stop;
  Sys.set_signal Sys.sigint stop;
  let code =
    Fun.protect
      ~finally:(fun () ->
        Kbench.Kfused.rm_rf tmp;
        try Unix.rmdir base with Unix.Unix_error _ -> ())
      (fun () ->
        match
          List.map
            (fun w ->
              let cfg =
                {
                  Kbench.Bench.workload = w;
                  seed = !seed;
                  seconds = !seconds;
                  trace = !trace = 1;
                  kfusec = !kfusec;
                  sizes = Kbench.Reqgen.full;
                  base;
                  out_dir;
                }
              in
              let r = Kbench.Bench.run cfg in
              List.iter prerr_endline (("== " ^ w) :: Kbench.Bench.report r);
              let json = Kfuse_service.Jsonx.to_string (Kbench.Bench.result_json r) in
              let oc =
                open_out
                  (Filename.concat out_dir
                     (Printf.sprintf "result-%s-seed%d-trace%d.json" w !seed !trace))
              in
              output_string oc
                (Kfuse_service.Jsonx.to_string
                   (Kfuse_service.Jsonx.Obj
                      [
                        ("host", Kfuse_service.Jsonx.Obj r.Kbench.Bench.host);
                        ("result", Kbench.Bench.result_json r);
                        ( "samples_ms",
                          Kfuse_service.Jsonx.Arr
                            (List.map (fun v -> Kfuse_service.Jsonx.Num v) r.Kbench.Bench.samples_ms) );
                        ( "report",
                          Kfuse_service.Jsonx.Arr
                            (List.map (fun l -> Kfuse_service.Jsonx.Str l) (Kbench.Bench.report r)) );
                      ]));
              close_out oc;
              json)
            names
        with
        | jsons ->
          List.iter print_endline jsons;
          0
        | exception Failure msg ->
          Printf.eprintf "kbench: %s\n" msg;
          1)
  in
  exit code
