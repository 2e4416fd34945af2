module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Image = Kfuse_image.Image
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Fingerprint = Kfuse_cache.Fingerprint
module Plan_cache = Kfuse_cache.Plan_cache
module C = Kfuse_codegen.Lower_common
module Lower_cpu = Kfuse_codegen.Lower_cpu

(* Bump when the generated wrapper or the marshalling layout changes:
   cached artifacts from an older ABI must never be loaded.  v2: the
   marshalling scalar is float64 — OCaml float arrays are already packed
   doubles, so images cross the boundary without rounding and the
   interpreter-vs-native diff reduces to the compiler's own liberties.
   v3: when kf_scalar is float64 the entry point runs on the ABI
   buffers in place instead of allocating + converting per call — the
   streaming per-frame path must not copy multi-megabyte images. *)
let abi_version = 3

type mode = Dlopen | Subprocess

let mode_to_string = function Dlopen -> "dlopen" | Subprocess -> "subprocess"

let mode_of_string = function
  | "dlopen" -> Some Dlopen
  | "subprocess" -> Some Subprocess
  | _ -> None

let mode_request_of_string = function
  | "auto" -> Some None
  | s -> Option.map Option.some (mode_of_string s)

type run_result = {
  outputs : (string * Image.t) list;
  mode_used : mode;
  artifact : string;
  cached : bool;
  compile_ms : float;
  exec_ms : float;
  samples_ms : float list;
  warnings : Diag.t list;
}

(* {1 Loader stubs (kfuse_exec_stubs.c)} *)

external dl_open : string -> nativeint = "kfuse_dl_open"
external dl_sym : nativeint -> string -> nativeint = "kfuse_dl_sym"
external dl_close : nativeint -> unit = "kfuse_dl_close"

external dl_call : nativeint -> float array array -> float array array -> float array -> unit
  = "kfuse_dl_call"

(* {1 Small helpers} *)

let now_ms () = Unix.gettimeofday () *. 1000.

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kfuse-exec-%d-%x" (Unix.getpid ())
         (Hashtbl.hash (Unix.gettimeofday ())))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* {1 Source generation: generated pipeline + mode-specific wrapper} *)

let runner_args (p : Pipeline.t) ~input ~output ~param =
  List.mapi (fun i n -> input i n) p.Pipeline.inputs
  @ List.mapi (fun i n -> output i n) (Pipeline.outputs p)
  @ List.mapi (fun i (n, _) -> param i n) p.Pipeline.params

let dlopen_wrapper (p : Pipeline.t) =
  let b = Buffer.create 512 in
  let w fmt = Printf.bprintf b fmt in
  let n = C.sanitize p.Pipeline.name in
  let n_in = List.length p.Pipeline.inputs in
  let n_out = List.length (Pipeline.outputs p) in
  w
    "// ABI v2 entry point for the kfuse loader stub: one fixed signature\n\
     // covers every pipeline shape, so a single dlsym suffices.  The ABI\n\
     // carries float64 images (lossless against the host's arrays); the\n\
     // pipeline computes in kf_scalar, so buffers convert at the edge —\n\
     // except when kf_scalar *is* float64, where the conversion is the\n\
     // identity and the ABI buffers are used in place.  That branch is\n\
     // decided on sizeof(kf_scalar), which the compiler folds away; it\n\
     // is the per-frame streaming path, so it must not allocate.\n";
  w "void kfuse_entry(const double** ins, double** outs, const double* params) {\n";
  if p.Pipeline.inputs = [] then w "  (void)ins;\n";
  if p.Pipeline.params = [] then w "  (void)params;\n";
  w "  const size_t npix = (size_t)%d * %d;\n" p.Pipeline.width p.Pipeline.height;
  w "  size_t i;\n";
  w "  (void)npix; (void)i;\n";
  w "  if (sizeof(kf_scalar) == sizeof(double)) {\n";
  let direct_args =
    runner_args p
      ~input:(fun i name -> Printf.sprintf "(const kf_scalar*)ins[%d] /* %s */" i name)
      ~output:(fun i name -> Printf.sprintf "(kf_scalar*)outs[%d] /* %s */" i name)
      ~param:(fun i name -> Printf.sprintf "params[%d] /* %s */" i name)
  in
  w "    run_%s(%s);\n" n (String.concat ", " direct_args);
  w "    return;\n";
  w "  }\n";
  for j = 0 to n_in - 1 do
    w "  kf_scalar* b_in%d = (kf_scalar*)kf_malloc(npix * sizeof(kf_scalar));\n" j;
    w "  for (i = 0; i < npix; i++) b_in%d[i] = (kf_scalar)ins[%d][i];\n" j j
  done;
  for j = 0 to n_out - 1 do
    w "  kf_scalar* b_out%d = (kf_scalar*)kf_malloc(npix * sizeof(kf_scalar));\n" j
  done;
  let args =
    runner_args p
      ~input:(fun i name -> Printf.sprintf "b_in%d /* %s */" i name)
      ~output:(fun i name -> Printf.sprintf "b_out%d /* %s */" i name)
      ~param:(fun i name -> Printf.sprintf "params[%d] /* %s */" i name)
  in
  w "  run_%s(%s);\n" n (String.concat ", " args);
  for j = 0 to n_out - 1 do
    w "  for (i = 0; i < npix; i++) outs[%d][i] = (double)b_out%d[i];\n" j j
  done;
  for j = 0 to n_in - 1 do
    w "  free(b_in%d);\n" j
  done;
  for j = 0 to n_out - 1 do
    w "  free(b_out%d);\n" j
  done;
  w "}\n";
  Buffer.contents b

let subprocess_wrapper (p : Pipeline.t) =
  let b = Buffer.create 1024 in
  let w fmt = Printf.bprintf b fmt in
  let n = C.sanitize p.Pipeline.name in
  let inputs = p.Pipeline.inputs and outputs = Pipeline.outputs p in
  let np = List.length p.Pipeline.params in
  w "#include <stdio.h>\n\n";
  w "// Standalone runner: argv[1] holds the packed native-endian float64\n";
  w "// inputs (in declaration order) followed by %d parameter value%s;\n" np
    (if np = 1 then "" else "s");
  w "// the outputs are written to argv[2] in the same packed format.\n";
  w "// The pipeline computes in kf_scalar; the float64 scratch buffer\n";
  w "// converts after reading and before writing.\n";
  w "int main(int argc, char** argv) {\n";
  w "  if (argc != 3) { fprintf(stderr, \"usage: %%s IN OUT\\n\", argv[0]); return 2; }\n";
  w "  const size_t npix = (size_t)%d * %d;\n" p.Pipeline.width p.Pipeline.height;
  w "  size_t i;\n";
  w "  double* kf_f64 = (double*)kf_malloc(npix * sizeof(double));\n";
  w "  FILE* f = fopen(argv[1], \"rb\");\n";
  w "  if (!f) { perror(argv[1]); return 3; }\n";
  List.iter
    (fun i ->
      let v = "kf_in_" ^ C.sanitize i in
      w "  kf_scalar* %s = (kf_scalar*)kf_malloc(npix * sizeof(kf_scalar));\n" v;
      w "  if (fread(kf_f64, sizeof(double), npix, f) != npix) { fprintf(stderr, \
         \"truncated input\\n\"); return 3; }\n";
      w "  for (i = 0; i < npix; i++) %s[i] = (kf_scalar)kf_f64[i];\n" v)
    inputs;
  if np > 0 then begin
    w "  double kf_params[%d];\n" np;
    w "  if (fread(kf_params, sizeof(double), %d, f) != %d) { fprintf(stderr, \
       \"truncated parameters\\n\"); return 3; }\n"
      np np
  end;
  w "  fclose(f);\n";
  List.iter
    (fun o ->
      w "  kf_scalar* %s = (kf_scalar*)kf_malloc(npix * sizeof(kf_scalar));\n"
        ("kf_out_" ^ C.sanitize o))
    outputs;
  let args =
    runner_args p
      ~input:(fun _ name -> "kf_in_" ^ C.sanitize name)
      ~output:(fun _ name -> "kf_out_" ^ C.sanitize name)
      ~param:(fun i _ -> Printf.sprintf "(kf_scalar)kf_params[%d]" i)
  in
  w "  run_%s(%s);\n" n (String.concat ", " args);
  w "  f = fopen(argv[2], \"wb\");\n";
  w "  if (!f) { perror(argv[2]); return 4; }\n";
  List.iter
    (fun o ->
      let v = "kf_out_" ^ C.sanitize o in
      w "  for (i = 0; i < npix; i++) kf_f64[i] = (double)%s[i];\n" v;
      w "  if (fwrite(kf_f64, sizeof(double), npix, f) != npix) { perror(argv[2]); \
         return 4; }\n")
    outputs;
  w "  if (fclose(f) != 0) { perror(argv[2]); return 4; }\n";
  w "  return 0;\n}\n";
  Buffer.contents b

let source ?tile ~mode (p : Pipeline.t) =
  (* Double precision throughout the pipeline: every operation and every
     inter-kernel store matches the float64 interpreter, so the
     interpreter-vs-native diff reduces to the float32 ABI boundary
     (input quantization + final output store), orders of magnitude
     inside the tolerance gate even for numerically touchy kernels. *)
  let base = Lower_cpu.emit_pipeline ?tile ~prec:C.Double p in
  let wrapper = match mode with Dlopen -> dlopen_wrapper p | Subprocess -> subprocess_wrapper p in
  base ^ "\n" ^ wrapper

(* {1 Compile cache} *)

(* The generated source itself is folded into the key (alongside the
   pipeline fingerprint, which keeps keys distinct even if two
   pipelines ever emitted identical C): any codegen change — lowering,
   wrapper, tiling — automatically invalidates stale artifacts without
   relying on a version bump someone must remember. *)
let artifact_key ~tc ~mode ~tile ~src (p : Pipeline.t) =
  let tile_s =
    match tile with None -> "untiled" | Some (tx, ty) -> Printf.sprintf "tile:%dx%d" tx ty
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            Printf.sprintf "kfuse-native-abi-v%d" abi_version;
            Fingerprint.exact p;
            mode_to_string mode;
            tile_s;
            "prec:double";
            Toolchain.id tc;
            src;
          ]))

let default_cache_dir () = Filename.concat (Plan_cache.default_dir ()) "native"

(* Process-wide count of real (cache-missing) compiler invocations.
   Streaming tests assert "exactly one compile per stream" as a delta of
   this counter across a session's lifetime. *)
let compile_count = Atomic.make 0
let compiles () = Atomic.get compile_count

(* Single-flight per artifact path: when several worker threads miss on
   the same key at once (N streams of the same pipeline opening against
   a cold cache), exactly one invokes the compiler and the rest wait for
   the publish.  Cross-process races stay benign through the per-attempt
   tmp name and the atomic rename. *)
let compile_lock = Mutex.create ()
let compile_inflight : (string, Condition.t) Hashtbl.t = Hashtbl.create 8
let compile_attempt = Atomic.make 0

let single_flight ~dest build =
  Mutex.lock compile_lock;
  let rec acquire () =
    if Sys.file_exists dest then begin
      Mutex.unlock compile_lock;
      Ok (dest, 0., true)
    end
    else
      match Hashtbl.find_opt compile_inflight dest with
      | Some cond ->
        Condition.wait cond compile_lock;
        acquire ()
      | None ->
        let cond = Condition.create () in
        Hashtbl.replace compile_inflight dest cond;
        Mutex.unlock compile_lock;
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock compile_lock;
            Hashtbl.remove compile_inflight dest;
            Condition.broadcast cond;
            Mutex.unlock compile_lock)
          build
  in
  acquire ()

let compile ?cache_dir ?tile ~mode (p : Pipeline.t) =
  match Toolchain.find () with
  | Error d -> Error d
  | Ok tc ->
    let dir = match cache_dir with Some d -> d | None -> default_cache_dir () in
    mkdir_p dir;
    let src = source ?tile ~mode p in
    let key = artifact_key ~tc ~mode ~tile ~src p in
    let ext = match mode with Dlopen -> ".so" | Subprocess -> ".bin" in
    let dest = Filename.concat dir ("kf-" ^ key ^ ext) in
    if Sys.file_exists dest then Ok (dest, 0., true)
    else
      single_flight ~dest @@ fun () ->
      (* The source is kept next to the artifact: a KF0903 message can
         point at a file a human can feed to the compiler by hand. *)
      let src_path = Filename.concat dir ("kf-" ^ key ^ ".c") in
      write_file src_path src;
      let attempt = Atomic.fetch_and_add compile_attempt 1 in
      let tmp = Printf.sprintf "%s.tmp.%d.%d" dest (Unix.getpid ()) attempt in
      let err_path = Printf.sprintf "%s.log.%d.%d" dest (Unix.getpid ()) attempt in
      let argv =
        (tc.Toolchain.cc :: Toolchain.flags tc ~shared:(mode = Dlopen))
        @ [ "-o"; tmp; src_path; "-lm" ]
      in
      (* Supervised fork/exec — no shell — with a wall cap so a wedged
         compiler cannot hang the daemon.  No rlimits: compilers
         legitimately need memory, and [fault_injection:false] keeps an
         armed [exec.*] chaos point aimed at executions, not at the
         compiler. *)
      let r =
        Supervisor.run
          ~limits:{ Supervisor.no_limits with Supervisor.wall_ms = Some 120_000. }
          ~fault_injection:false ~stderr_path:err_path ~argv ()
      in
      let log = r.Supervisor.stderr_tail in
      (try Sys.remove err_path with Sys_error _ -> ());
      match r.Supervisor.status with
      | Error f ->
        (try Sys.remove tmp with Sys_error _ -> ());
        let reason =
          match f with
          | Supervisor.Nonzero_exit { code } -> Printf.sprintf "exited with %d" code
          | Supervisor.Timeout { wall_ms; _ } ->
            Printf.sprintf "timed out after %.0f ms" wall_ms
          | Supervisor.Crashed { signal } -> "crashed with " ^ signal
          | Supervisor.Limit { what; _ } -> "exceeded " ^ what
          | Supervisor.Spawn_failed { reason } -> reason
        in
        Error
          (Diag.errorf Diag.Compile_failed "%s %s compiling generated C (%s):\n%s"
             tc.Toolchain.cc reason src_path log)
      | Ok () ->
        (* Atomic publish: concurrent builders race benignly on rename. *)
        Sys.rename tmp dest;
        Atomic.incr compile_count;
        Ok (dest, r.Supervisor.wall_ms, false)

(* {1 Marshalling} *)

(* Zero-copy marshalling: at streaming rates this path runs once per
   frame, so it must not allocate or copy megabytes per call.  Inputs
   are read-only views of the image's backing array (the C stub copies
   them into private buffers before the kernel runs); outputs transfer
   ownership of the result buffer into the image. *)
let flatten img = Image.unsafe_data img

let unflatten ~width ~height arr = Image.unsafe_of_flat ~width ~height arr

(* Mirror {!Eval.run}'s input contract so the two backends are
   interchangeable in tests and oracles. *)
let check_inputs (p : Pipeline.t) inputs =
  let names = List.map fst inputs in
  let sorted = List.sort compare names and expected = List.sort compare p.Pipeline.inputs in
  if sorted <> expected then
    invalid_arg
      (Printf.sprintf "Native.run: pipeline %s expects inputs {%s}, got {%s}"
         p.Pipeline.name
         (String.concat ", " expected)
         (String.concat ", " sorted));
  List.iter
    (fun (n, img) ->
      if Image.width img <> p.Pipeline.width || Image.height img <> p.Pipeline.height then
        invalid_arg
          (Printf.sprintf "Native.run: input %s is %dx%d, pipeline %s is %dx%d" n
             (Image.width img) (Image.height img) p.Pipeline.name p.Pipeline.width
             p.Pipeline.height))
    inputs

let param_values (p : Pipeline.t) overrides =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n p.Pipeline.params) then
        invalid_arg
          (Printf.sprintf "Native.run: pipeline %s has no parameter %s" p.Pipeline.name n))
    overrides;
  List.map
    (fun (n, default) ->
      match List.assoc_opt n overrides with Some v -> v | None -> default)
    p.Pipeline.params

(* A reduction materializes as a 1x1 image (the generated code
   broadcasts the scalar over the full buffer; cell 0 is the value). *)
let is_reduction (p : Pipeline.t) name =
  match Pipeline.producer p name with
  | None -> false
  | Some i -> (
    match (Pipeline.kernel p i).Kernel.op with
    | Kernel.Reduce _ -> true
    | Kernel.Map _ -> false)

let finish_outputs (p : Pipeline.t) out_names bufs =
  let width = p.Pipeline.width and height = p.Pipeline.height in
  List.map2
    (fun name buf ->
      let img =
        if is_reduction p name then Image.init ~width:1 ~height:1 (fun _ _ -> buf.(0))
        else unflatten ~width ~height buf
      in
      (name, img))
    out_names (Array.to_list bufs)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* {1 Execution} *)

(* The request deadline is honored between [repeat] timing samples in
   both modes, so a large [repeat] cannot blow past the service's
   [--request-timeout-ms]: the sample loop stops with KF0905 instead of
   running the full schedule. *)
let sample_deadline_diag ~artifact ~done_ ~repeat =
  Diag.errorf Diag.Exec_timeout
    "request deadline expired after %d of %d timing samples of compiled plan %s" done_ repeat
    artifact

(* A pinned dlopen handle: one dlopen + dlsym at open time, then a bare
   function call per execution.  This is what makes per-frame streaming
   cheap — sessions keep the handle alive across pushes instead of
   paying the loader per call. *)
type loaded = { handle : nativeint; entry : nativeint }

let load_artifact artifact =
  match dl_open artifact with
  | exception Failure msg ->
    Error (Diag.errorf Diag.Exec_failed "dlopen(%s): %s" artifact msg)
  | handle -> (
    match dl_sym handle "kfuse_entry" with
    | exception Failure msg ->
      dl_close handle;
      Error (Diag.errorf Diag.Exec_failed "dlsym(%s, kfuse_entry): %s" artifact msg)
    | entry -> Ok { handle; entry })

let exec_entry ~deadline ~entry ~artifact ~repeat (p : Pipeline.t) inputs pvals =
  let npix = p.Pipeline.width * p.Pipeline.height in
  let out_names = Pipeline.outputs p in
  let ins =
    Array.of_list (List.map (fun n -> flatten (List.assoc n inputs)) p.Pipeline.inputs)
  in
  let outs = Array.of_list (List.map (fun _ -> Array.make npix 0.) out_names) in
  let pars = Array.of_list pvals in
  let samples = ref [] in
  let expired = ref false in
  for i = 1 to repeat do
    if not !expired then
      if i > 1 && Deadline.expired deadline then expired := true
      else begin
        let t0 = now_ms () in
        dl_call entry ins outs pars;
        samples := (now_ms () -. t0) :: !samples
      end
  done;
  if !expired then
    Error (sample_deadline_diag ~artifact ~done_:(List.length !samples) ~repeat)
  else Ok (finish_outputs p out_names outs, List.rev !samples)

let pack_float64 buf f = Buffer.add_int64_ne buf (Int64.bits_of_float f)

let exec_subprocess ~deadline ~limits ~artifact ~repeat (p : Pipeline.t) inputs pvals =
  let npix = p.Pipeline.width * p.Pipeline.height in
  let out_names = Pipeline.outputs p in
  let n_out = List.length out_names in
  with_temp_dir (fun dir ->
      let in_path = Filename.concat dir "in.f64" in
      let out_path = Filename.concat dir "out.f64" in
      let err_path = Filename.concat dir "stderr" in
      let buf = Buffer.create (8 * ((npix * List.length p.Pipeline.inputs) + List.length pvals)) in
      List.iter
        (fun n -> Array.iter (pack_float64 buf) (flatten (List.assoc n inputs)))
        p.Pipeline.inputs;
      List.iter (pack_float64 buf) pvals;
      write_file in_path (Buffer.contents buf);
      (* Each sample is a supervised fork/exec child (no shell): rlimits
         between fork and exec, a watchdog on the request deadline, and
         typed KF0905/KF0906/KF0907 classification when it dies. *)
      let argv = [ artifact; in_path; out_path ] in
      let samples = ref [] in
      let failed = ref None in
      for i = 1 to repeat do
        if !failed = None then
          if i > 1 && Deadline.expired deadline then
            failed :=
              Some (sample_deadline_diag ~artifact ~done_:(List.length !samples) ~repeat)
          else begin
            let r = Supervisor.run ~deadline ~limits ~stderr_path:err_path ~argv () in
            match
              Supervisor.failure_diag ~what:(Printf.sprintf "compiled plan %s" artifact) r
            with
            | Some d -> failed := Some d
            | None -> samples := r.Supervisor.wall_ms :: !samples
          end
      done;
      match !failed with
      | Some d -> Error d
      | None -> (
        let expected = 8 * npix * n_out in
        match open_in_bin out_path with
        | exception Sys_error msg ->
          Error (Diag.errorf Diag.Exec_failed "cannot read plan output: %s" msg)
        | ic ->
          Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
              if in_channel_length ic <> expected then
                Error
                  (Diag.errorf Diag.Exec_failed
                     "compiled plan %s wrote %d bytes, expected %d" artifact
                     (in_channel_length ic) expected)
              else begin
                let bytes = really_input_string ic expected |> Bytes.of_string in
                let bufs =
                  Array.init n_out (fun o ->
                      Array.init npix (fun i ->
                          Int64.float_of_bits
                            (Bytes.get_int64_ne bytes (8 * ((o * npix) + i)))))
                in
                Ok (finish_outputs p out_names bufs, List.rev !samples)
              end)))

(* {1 Pinned plans} *)

let min_sample = function [] -> 0. | s :: rest -> List.fold_left min s rest

type plan = {
  plan_pipeline : Pipeline.t;
  plan_mode : mode;
  plan_artifact : string;
  plan_cached : bool;
  plan_compile_ms : float;
  plan_warnings : Diag.t list;
  plan_loaded : loaded option;  (* Some for Dlopen, None for Subprocess *)
  mutable plan_released : bool;
}

let pin ?tile ?cache_dir ~mode (p : Pipeline.t) =
  match compile ?cache_dir ?tile ~mode p with
  | Error d -> Error d
  | Ok (artifact, compile_ms, cached) ->
    let loaded =
      match mode with
      | Subprocess -> Ok None
      | Dlopen -> Result.map Option.some (load_artifact artifact)
    in
    Result.map
      (fun plan_loaded ->
        {
          plan_pipeline = p;
          plan_mode = mode;
          plan_artifact = artifact;
          plan_cached = cached;
          plan_compile_ms = compile_ms;
          plan_warnings = [];
          plan_loaded;
          plan_released = false;
        })
      loaded

(* The one dlopen -> subprocess fallback: when no mode is requested an
   in-process load failure (KF0904) retries as a subprocess runner,
   which shares no process state with us, and keeps the evidence. *)
let prepare ?mode ?tile ?cache_dir (p : Pipeline.t) =
  match mode with
  | Some mode -> pin ?tile ?cache_dir ~mode p
  | None -> (
    match pin ?tile ?cache_dir ~mode:Dlopen p with
    | Error d when d.Diag.code = Diag.Exec_failed ->
      Result.map
        (fun plan -> { plan with plan_warnings = [ { d with Diag.severity = Diag.Warning } ] })
        (pin ?tile ?cache_dir ~mode:Subprocess p)
    | r -> r)

let plan_mode plan = plan.plan_mode
let plan_artifact plan = plan.plan_artifact
let plan_cached plan = plan.plan_cached
let plan_compile_ms plan = plan.plan_compile_ms
let plan_warnings plan = plan.plan_warnings
let plan_pipeline plan = plan.plan_pipeline

let release plan =
  if not plan.plan_released then begin
    plan.plan_released <- true;
    match plan.plan_loaded with None -> () | Some l -> dl_close l.handle
  end

let run_plan ?(params = []) ?(repeat = 1) ?(deadline = Deadline.none)
    ?(limits = Supervisor.no_limits) plan inputs =
  if repeat < 1 then invalid_arg "Native.run_plan: repeat must be positive";
  if plan.plan_released then invalid_arg "Native.run_plan: plan already released";
  let p = plan.plan_pipeline in
  check_inputs p inputs;
  let pvals = param_values p params in
  let artifact = plan.plan_artifact in
  let exec =
    match plan.plan_loaded with
    | Some l -> exec_entry ~deadline ~entry:l.entry ~artifact ~repeat p inputs pvals
    | None -> exec_subprocess ~deadline ~limits ~artifact ~repeat p inputs pvals
  in
  match exec with
  | Error d -> Error d
  | Ok (outputs, samples_ms) ->
    Ok
      {
        outputs;
        mode_used = plan.plan_mode;
        artifact;
        cached = plan.plan_cached;
        compile_ms = 0.;
        exec_ms = min_sample samples_ms;
        samples_ms;
        warnings = [];
      }

(* {1 One-shot execution} *)

(* A one-shot run is a pinned plan used once.  The call is validated
   before [prepare], so a malformed call never pays for a compile. *)
let run ?mode ?tile ?cache_dir ?(params = []) ?(repeat = 1) ?deadline ?limits
    (p : Pipeline.t) inputs =
  if repeat < 1 then invalid_arg "Native.run: repeat must be positive";
  check_inputs p inputs;
  ignore (param_values p params);
  match prepare ?mode ?tile ?cache_dir p with
  | Error d -> Error d
  | Ok plan ->
    Fun.protect ~finally:(fun () -> release plan) @@ fun () ->
    Result.map
      (fun r -> { r with compile_ms = plan.plan_compile_ms; warnings = plan.plan_warnings })
      (run_plan ~params ~repeat ?deadline ?limits plan inputs)
