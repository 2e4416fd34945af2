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
   streaming per-frame path must not copy multi-megabyte images.
   v4: a subprocess artifact is a fork-server ({!Supervisor.Forkserver})
   running on planes in a memfd, not a file-marshalling [main IN OUT]. *)
let abi_version = 4

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

(* {1 Source generation: generated pipeline + mode-specific wrapper} *)

let runner_args (p : Pipeline.t) ~input ~output ~param =
  List.mapi (fun i n -> input i n) p.Pipeline.inputs
  @ List.mapi (fun i n -> output i n) (Pipeline.outputs p)
  @ List.mapi (fun i (n, _) -> param i n) p.Pipeline.params

let dlopen_wrapper (p : Pipeline.t) =
  let b = Buffer.create 512 in
  let w fmt = Printf.bprintf b fmt in
  w
    "// ABI v2 entry point for the kfuse loader stub: one fixed signature\n\
     // covers every pipeline shape, so a single dlsym suffices.  The\n\
     // pipeline computes in float64, the ABI's own scalar, so it runs on\n\
     // the ABI buffers in place: the per-frame streaming path never\n\
     // allocates.\n";
  w "_Static_assert(sizeof(kf_scalar) == sizeof(double), \"ABI v2 buffers are float64\");\n";
  w "void kfuse_entry(const double** ins, double** outs, const double* params) {\n";
  if p.Pipeline.inputs = [] then w "  (void)ins;\n";
  if p.Pipeline.params = [] then w "  (void)params;\n";
  let args =
    runner_args p
      ~input:(fun i name -> Printf.sprintf "ins[%d] /* %s */" i name)
      ~output:(fun i name -> Printf.sprintf "outs[%d] /* %s */" i name)
      ~param:(fun i name -> Printf.sprintf "params[%d] /* %s */" i name)
  in
  w "  run_%s(%s);\n" (C.sanitize p.Pipeline.name) (String.concat ", " args);
  w "}\n";
  Buffer.contents b

(* The planes memfd of a subprocess plan: the inputs, then the outputs,
   then the parameters, all float64 in declaration order.  Never empty,
   so the fork-server always has something to map. *)
let plane_offsets (p : Pipeline.t) =
  let npix = p.Pipeline.width * p.Pipeline.height in
  let n_in = List.length p.Pipeline.inputs and n_out = List.length (Pipeline.outputs p) in
  let input i = i * npix and output o = (n_in + o) * npix and param = (n_in + n_out) * npix in
  let words = max 1 (param + List.length p.Pipeline.params) in
  (input, output, param, words)

let zygote_wrapper (p : Pipeline.t) =
  let b = Buffer.create 1024 in
  let w fmt = Printf.bprintf b fmt in
  let input, output, param, words = plane_offsets p in
  w "// ABI v4 fork-server entry: the pipeline runs in place on the mapped\n";
  w "// planes memfd (inputs, outputs, parameters; float64 in declaration\n";
  w "// order), so kf_scalar must be float64.\n";
  w "_Static_assert(sizeof(kf_scalar) == sizeof(double), \"ABI v4 planes are float64\");\n";
  w "const size_t kf_zygote_bytes = (size_t)%d * sizeof(double);\n" words;
  w "void kf_zygote_run(double* planes) {\n";
  let args =
    runner_args p
      ~input:(fun i name -> Printf.sprintf "planes + %d /* %s */" (input i) name)
      ~output:(fun i name -> Printf.sprintf "planes + %d /* %s */" (output i) name)
      ~param:(fun i name -> Printf.sprintf "planes[%d] /* %s */" (param + i) name)
  in
  w "  run_%s(%s);\n" (C.sanitize p.Pipeline.name) (String.concat ", " args);
  w "}\n";
  Buffer.contents b

let source ?tile ~mode (p : Pipeline.t) =
  (* Double precision throughout the pipeline: every operation and every
     inter-kernel store matches the float64 interpreter, and both
     wrappers run it in place on float64 buffers (their static asserts
     hold the lowering to that), so no conversion sits at the edge. *)
  let base = Lower_cpu.emit_pipeline ?tile ~prec:C.Double p in
  let wrapper = match mode with Dlopen -> dlopen_wrapper p | Subprocess -> zygote_wrapper p in
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
            (match mode with
            | Dlopen -> ""
            | Subprocess -> Digest.to_hex (Digest.string Forkserver_runtime.source));
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

(* One supervised compiler run, [cc args] with [-o <tmp>] appended,
   published atomically at [dest]; returns the compiler's wall time.
   [src_path] names the source in a KF0903. *)
let run_cc ~tc ~dest ~src_path args =
  let attempt = Atomic.fetch_and_add compile_attempt 1 in
  let tmp = Printf.sprintf "%s.tmp.%d.%d" dest (Unix.getpid ()) attempt in
  (* Supervised fork/exec — no shell — with a wall cap so a wedged
     compiler cannot hang the daemon.  No rlimits: compilers
     legitimately need memory. *)
  let r =
    Supervisor.run
      ~limits:{ Supervisor.no_limits with Supervisor.wall_ms = Some 120_000. }
      ~argv:((tc.Toolchain.cc :: args) @ [ "-o"; tmp ])
      ()
  in
  match r.Supervisor.status with
  | Error f ->
    (try Sys.remove tmp with Sys_error _ -> ());
    let reason =
      match f with
      | Supervisor.Nonzero_exit { code } -> Printf.sprintf "exited with %d" code
      | Supervisor.Timeout { wall_ms; _ } -> Printf.sprintf "timed out after %.0f ms" wall_ms
      | Supervisor.Crashed { signal } -> "crashed with " ^ signal
      | Supervisor.Limit { what; _ } -> "exceeded " ^ what
      | Supervisor.Spawn_failed { reason } -> reason
    in
    Error
      (Diag.errorf Diag.Compile_failed "%s %s compiling generated C (%s):\n%s" tc.Toolchain.cc
         reason src_path r.Supervisor.stderr_tail)
  | Ok () ->
    (* Atomic publish: concurrent builders race benignly on rename. *)
    Sys.rename tmp dest;
    Ok r.Supervisor.wall_ms

(* [dir/kf-<key><ext>] built from [src] once per key across threads:
   [(path, compile_ms, cached)].  The source is kept next to it, so a
   KF0903 message can point at a file a human can feed to the compiler
   by hand. *)
let cached_build ~dir ~key ~ext ~src build =
  let dest = Filename.concat dir ("kf-" ^ key ^ ext) in
  if Sys.file_exists dest then Ok (dest, 0., true)
  else
    single_flight ~dest @@ fun () ->
    let src_path = Filename.concat dir ("kf-" ^ key ^ ".c") in
    write_file src_path src;
    Result.map (fun ms -> (dest, ms, false)) (build ~dest ~src_path)

(* The fork-server runtime is the same C for every subprocess artifact:
   it is compiled once per cache directory and toolchain, and each
   artifact links the object, which keeps it off every plan's compile.
   Its work per run is a fork and a few syscalls, so it is built
   unoptimized: that once-per-cache compile sits on the first plan's
   path (a cold stream_open). *)
let runtime_object ~tc ~dir =
  let src = Forkserver_runtime.source in
  let key = "runtime-" ^ Digest.to_hex (Digest.string (Toolchain.id tc ^ "\n" ^ src)) in
  cached_build ~dir ~key ~ext:".o" ~src (fun ~dest ~src_path ->
      run_cc ~tc ~dest ~src_path [ "-O0"; "-c"; src_path ])

let compile ?cache_dir ?tile ~mode (p : Pipeline.t) =
  match Toolchain.find () with
  | Error d -> Error d
  | Ok tc ->
    let dir = match cache_dir with Some d -> d | None -> default_cache_dir () in
    mkdir_p dir;
    let src = source ?tile ~mode p in
    let key = artifact_key ~tc ~mode ~tile ~src p in
    let ext = match mode with Dlopen -> ".so" | Subprocess -> ".bin" in
    let built =
      cached_build ~dir ~key ~ext ~src (fun ~dest ~src_path ->
          let runtime =
            match mode with
            | Dlopen -> Ok ([], 0.)
            | Subprocess -> Result.map (fun (o, ms, _) -> ([ o ], ms)) (runtime_object ~tc ~dir)
          in
          Result.bind runtime (fun (objs, runtime_ms) ->
              let flags = Toolchain.flags tc ~shared:(mode = Dlopen) in
              Result.map (fun ms -> runtime_ms +. ms)
                (run_cc ~tc ~dest ~src_path ((flags @ (src_path :: objs)) @ [ "-lm" ]))))
    in
    (match built with Ok (_, _, false) -> Atomic.incr compile_count | _ -> ());
    built

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

(* One fresh run-child per sample, forked by the plan's fork-server on
   planes it already maps: the inputs and parameters are written into
   the memfd once, the outputs read back once after the last sample. *)
let exec_forked ~deadline ~limits ~artifact ~repeat fs (p : Pipeline.t) inputs pvals =
  let module Fs = Supervisor.Forkserver in
  let npix = p.Pipeline.width * p.Pipeline.height in
  let input, output, param, _ = plane_offsets p in
  let out_names = Pipeline.outputs p in
  let offset words = 8 * words in
  let what = Printf.sprintf "compiled plan %s" artifact in
  let rec sample i acc =
    if i > repeat then Ok (List.rev acc)
    else if i > 1 && Deadline.expired deadline then
      Error (sample_deadline_diag ~artifact ~done_:(List.length acc) ~repeat)
    else
      let r = Fs.run fs ~deadline ~limits in
      match Supervisor.failure_diag ~what r with
      | Some d -> Error d
      | None -> sample (i + 1) (r.Supervisor.wall_ms :: acc)
  in
  let load o =
    let a = Array.create_float npix in
    Fs.load fs ~offset:(offset (output o)) a;
    a
  in
  Fs.exclusive fs @@ fun () ->
  try
    List.iteri
      (fun i n -> Fs.store fs ~offset:(offset (input i)) (flatten (List.assoc n inputs)))
      p.Pipeline.inputs;
    if pvals <> [] then Fs.store fs ~offset:(offset param) (Array.of_list pvals);
    Result.map
      (fun samples ->
        let outs = Array.of_list (List.mapi (fun o _ -> load o) out_names) in
        (finish_outputs p out_names outs, samples))
      (sample 1 [])
  with Unix.Unix_error (e, fn, _) ->
    Error
      (Diag.errorf Diag.Exec_failed "moving the planes of compiled plan %s: %s: %s" artifact fn
         (Unix.error_message e))

(* {1 Pinned plans} *)

let min_sample = function [] -> 0. | s :: rest -> List.fold_left min s rest

type plan = {
  plan_pipeline : Pipeline.t;
  plan_mode : mode;
  plan_artifact : string;
  plan_cached : bool;
  plan_compile_ms : float;
  plan_warnings : Diag.t list;
  plan_backend : backend;
  mutable plan_released : bool;
}

and backend = Loaded of loaded | Forked of Supervisor.Forkserver.t

let pin ?tile ?cache_dir ~mode (p : Pipeline.t) =
  match compile ?cache_dir ?tile ~mode p with
  | Error d -> Error d
  | Ok (artifact, compile_ms, cached) ->
    let backend =
      match mode with
      | Subprocess ->
        let _, _, _, words = plane_offsets p in
        Ok (Forked (Supervisor.Forkserver.create ~artifact ~bytes:(8 * words)))
      | Dlopen -> Result.map (fun l -> Loaded l) (load_artifact artifact)
    in
    Result.map
      (fun plan_backend ->
        {
          plan_pipeline = p;
          plan_mode = mode;
          plan_artifact = artifact;
          plan_cached = cached;
          plan_compile_ms = compile_ms;
          plan_warnings = [];
          plan_backend;
          plan_released = false;
        })
      backend

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

let plan_pid plan =
  match plan.plan_backend with Forked fs -> Supervisor.Forkserver.pid fs | Loaded _ -> None

let spawns = Supervisor.Forkserver.spawns

let keep_alive plan ~ms =
  match plan.plan_backend with
  | Forked fs -> Supervisor.Forkserver.set_keep_alive fs ms
  | Loaded _ -> ()

let release plan =
  if not plan.plan_released then begin
    plan.plan_released <- true;
    match plan.plan_backend with
    | Loaded l -> dl_close l.handle
    | Forked fs -> Supervisor.Forkserver.release fs
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
    match plan.plan_backend with
    | Loaded l -> exec_entry ~deadline ~entry:l.entry ~artifact ~repeat p inputs pvals
    | Forked fs -> exec_forked ~deadline ~limits ~artifact ~repeat fs p inputs pvals
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
    (* The release right after ends the server: until then it serves
       every sample. *)
    keep_alive plan ~ms:Float.infinity;
    Result.map
      (fun r -> { r with compile_ms = plan.plan_compile_ms; warnings = plan.plan_warnings })
      (run_plan ~params ~repeat ?deadline ?limits plan inputs)
