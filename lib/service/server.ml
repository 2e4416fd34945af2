module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Faults = Kfuse_util.Faults
module Pool = Kfuse_util.Pool
module Iset = Kfuse_util.Iset
module Plan_cache = Kfuse_cache.Plan_cache
module Fingerprint = Kfuse_cache.Fingerprint
module F = Kfuse_fusion
module Ir = Kfuse_ir
module Image = Kfuse_image.Image
module Native = Kfuse_exec.Native
module Supervisor = Kfuse_exec.Supervisor
module Toolchain = Kfuse_exec.Toolchain
module Session = Kfuse_stream.Session
module Frames = Kfuse_stream.Frames
module Lz = Kfuse_lazy

(* One open stream: the per-stream temporal state plus the pinned
   compiled plan.  Its {!Session_table} entry bounds the in-flight
   pushes ([stream_queue], [KF0805] beyond it) and releases the pinned
   plan exactly once.  [s_lock] serializes frame execution so the
   temporal window advances exactly once per processed frame. *)
type stream = {
  session : Session.t;
  stream_seed : int;
  stream_fp : string;  (* exact fingerprint, the breaker's key *)
  stream_plan : Native.plan option;  (* None = interpreter-only stream *)
  s_lock : Mutex.t;
}

(* One open lazy-pipeline editing session: a mutable builder plus its
   incremental replanning memos.  [lz_lock] serializes edits and flushes
   (builders are not thread-safe).  A lazy session pins no native plan,
   so it needs no release hook. *)
type lazy_session = {
  builder : Lz.Lazy_pipeline.t;
  lz_lock : Mutex.t;
  mutable lz_flushes : int;
}

type t = {
  fe : Frontend.t;
  cache : Plan_cache.t;
  pool : Pool.t;
  default_budget_ms : float option;
  metrics : Metrics.t;
  (* Native-execution safety net: how generated code is run
     ([exec_sandbox]), the rlimits applied to sandboxed children, where
     crash artifacts are persisted, and the per-fingerprint circuit
     breaker that quarantines plans that keep crashing. *)
  exec_sandbox : Supervisor.policy;
  exec_limits : Supervisor.limits;
  crash_dir : string;
  breaker : Supervisor.Breaker.t;
  started_at : float;
  (* Stream and lazy sessions.  Both tables are bounded by
     [max_streams] ([KF0803] beyond it) and idle-expire after
     [stream_idle_ms]; [stream_queue] bounds each stream's in-flight
     pushes. *)
  streams : stream Session_table.t;
  lazies : lazy_session Session_table.t;
  max_streams : int;
  stream_queue : int;
  stream_idle_ms : float;
}

let socket t = Frontend.socket t.fe
let cache t = t.cache
let metrics t = t.metrics
let in_flight t = Frontend.in_flight t.fe

(* ---- request handling ---- *)

let load_pipeline ?size (f : Protocol.fuse_request) =
  match (f.Protocol.app, f.Protocol.source) with
  | Some name, _ -> (
    match Kfuse_apps.Registry.find name with
    | Some e -> (
      match size with
      | None -> Ok (e.Kfuse_apps.Registry.pipeline ())
      | Some (width, height) -> Ok (e.Kfuse_apps.Registry.small ~width ~height))
    | None ->
      Error
        (Diag.errorf Diag.Io_error "unknown application %S (try: %s)" name
           (String.concat ", " Kfuse_apps.Registry.names)))
  | None, Some src ->
    if size <> None then
      Error
        (Diag.v Diag.Protocol_error
           "width/height overrides apply to registry apps only, not DSL source")
    else Kfuse_dsl.Elaborate.parse_pipeline_diag src
  | None, None -> Error (Diag.v Diag.Protocol_error "fuse without app or source")

let size_of width height =
  match (width, height) with Some w, Some h -> Some (w, h) | _ -> None

(* A session's reply, or its typed table error (unknown id, shed). *)
let reply_of = function Ok resp -> resp | Error d -> Protocol.error d

let native_cache_dir t =
  Option.map (fun d -> Filename.concat d "native") (Plan_cache.dir t.cache)

let validated = Ir.Validate.result

let block_names (p : Ir.Pipeline.t) block =
  List.map (fun i -> Jsonx.Str (Ir.Pipeline.kernel p i).Ir.Kernel.name) (Iset.elements block)

let report_fields (r : F.Driver.report) =
  [
    ("strategy", Jsonx.Str (F.Driver.strategy_to_string r.F.Driver.strategy));
    ("kernels_in", Jsonx.Num (float_of_int (Ir.Pipeline.num_kernels r.F.Driver.input)));
    ("kernels_out", Jsonx.Num (float_of_int (Ir.Pipeline.num_kernels r.F.Driver.fused)));
    ("objective", Jsonx.Num r.F.Driver.objective);
    ( "partition",
      Jsonx.Arr
        (List.map (fun b -> Jsonx.Arr (block_names r.F.Driver.input b)) r.F.Driver.partition)
    );
    ("inlined", Jsonx.Arr (List.map (fun s -> Jsonx.Str s) r.F.Driver.inlined));
    ("degraded", Jsonx.Bool r.F.Driver.degraded);
    ( "warnings",
      Jsonx.Arr (List.map (fun d -> Jsonx.Str (Diag.to_string d)) r.F.Driver.warnings) );
  ]

(* Shared planning path of [fuse] and [fuse_exec]: load, validate,
   budget against the deadline, serve from the plan cache. *)
let plan t ~deadline ?size (f : Protocol.fuse_request) =
  match Result.bind (load_pipeline ?size f) validated with
  | Error _ as e -> e
  | Ok p ->
    let config =
      Protocol.fusion_config ~c_mshared:f.Protocol.c_mshared ~gamma:f.Protocol.gamma
        ~tg:f.Protocol.tg
    in
    let strategy = f.Protocol.strategy in
    let optimize = f.Protocol.optimize and inline = f.Protocol.inline in
    (* The fusion-search budget is capped by what remains of the
       request's wall-clock deadline: a request that already spent its
       time queueing degrades (or fails under strict) immediately
       instead of hanging in the search. *)
    let budget_ms =
      let base =
        match f.Protocol.budget_ms with Some b -> Some b | None -> t.default_budget_ms
      in
      match (Deadline.remaining_ms deadline, base) with
      | None, b -> b
      | Some r, None -> Some r
      | Some r, Some b -> Some (Float.min r b)
    in
    let compute () =
      let t0 = Unix.gettimeofday () in
      match
        F.Driver.run_result ~optimize ~inline ~strict:f.Protocol.strict ~pool:t.pool
          ?budget_ms config strategy p
      with
      | Error _ as e -> e
      | Ok r -> Ok (r, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    if f.Protocol.no_cache then
      Result.map (fun (r, ms) -> (r, "bypass", ms)) (compute ())
    else begin
      let key = Fingerprint.plan_key ~config ~strategy ~optimize ~inline p in
      match Plan_cache.find t.cache key with
      | Some (r, outcome) -> Ok (r, Plan_cache.outcome_to_string outcome, 0.0)
      | None -> (
        match compute () with
        | Error _ as e -> e
        | Ok (r, ms) ->
          Plan_cache.store t.cache key r;
          (* find-then-store keeps the outcome (miss vs miss-iso)
             distinction out of the hot reply path; the distinction
             lives in the cache stats. *)
          Ok (r, "miss", ms))
    end

let plan_fields (r, outcome, plan_ms) =
  report_fields r
  @ [
      ("cached", Jsonx.Bool (outcome = "hit" || outcome = "hit-disk"));
      ("outcome", Jsonx.Str outcome);
      ("plan_ms", Jsonx.Num plan_ms);
    ]

let handle_fuse t ~deadline (f : Protocol.fuse_request) =
  match plan t ~deadline f with
  | Error d -> Protocol.error d
  | Ok served -> Protocol.ok (plan_fields served)

let output_json ~return_pixels (name, img) =
  let w = Image.width img and h = Image.height img in
  let n = w * h in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity and sum = ref 0.0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let v = Image.get img x y in
      if v < !lo then lo := v;
      if v > !hi then hi := v;
      sum := !sum +. v
    done
  done;
  let base =
    [
      ("name", Jsonx.Str name);
      ("width", Jsonx.Num (float_of_int w));
      ("height", Jsonx.Num (float_of_int h));
      ("min", Jsonx.Num !lo);
      ("max", Jsonx.Num !hi);
      ("mean", Jsonx.Num (!sum /. float_of_int (max 1 n)));
    ]
  in
  let pixels =
    if not return_pixels then []
    else
      [
        ( "pixels",
          Jsonx.Arr
            (List.init h (fun y ->
                 Jsonx.Arr (List.init w (fun x -> Jsonx.Num (Image.get img x y))))) );
      ]
  in
  Jsonx.Obj (base @ pixels)

let warnings_json warns =
  Jsonx.Arr (List.map (fun d -> Jsonx.Str (Diag.to_string d)) warns)

(* A quarantined plan still answers: the interpreter computes the
   pixels, the reply carries ["mode" = "interpreter"] plus a warning, so
   degradation is visible but not fatal — PR 2's degradation contract
   applied to native execution. *)
let interpreter_fallback t ~served ~warning ~verify ~return_pixels p inputs =
  Metrics.incr t.metrics "native_exec_fallbacks";
  let t0 = Unix.gettimeofday () in
  let outputs = Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs) in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Protocol.ok
    (plan_fields served
    @ [
        ( "exec",
          Jsonx.Obj
            [
              ("mode", Jsonx.Str "interpreter");
              ("quarantined", Jsonx.Bool true);
              ("artifact", Jsonx.Str "");
              ("artifact_cached", Jsonx.Bool false);
              ("compile_ms", Jsonx.Num 0.0);
              ("exec_ms", Jsonx.Num ms);
              ("samples_ms", Jsonx.Arr [ Jsonx.Num ms ]);
              ("warnings", warnings_json [ warning ]);
            ] );
        ("outputs", Jsonx.Arr (List.map (output_json ~return_pixels) outputs));
      ]
    (* The fallback *is* the interpreter, so a requested verify is
       trivially exact. *)
    @ if verify then [ ("max_abs_diff", Jsonx.Num 0.0) ] else [])

(* Account a supervised-execution failure: counters, a crash artifact
   for the fuzzer to shrink, and a breaker strike that may quarantine
   the fingerprint. *)
let record_exec_failure t ~fp ~seed p (d : Diag.t) =
  (match d.Diag.code with
  | Diag.Exec_timeout -> Metrics.incr t.metrics "native_exec_timeouts"
  | Diag.Exec_crashed -> Metrics.incr t.metrics "native_exec_crashes"
  | Diag.Exec_limit -> Metrics.incr t.metrics "native_exec_limits"
  | _ -> ());
  let toolchain =
    match Toolchain.find () with Ok tc -> Toolchain.id tc | Error _ -> "unknown"
  in
  (match Supervisor.save_crash_artifact ~dir:t.crash_dir ~seed ~toolchain ~diag:d p with
  | Ok _ | Error _ -> ());
  if Supervisor.Breaker.record_failure t.breaker fp d then
    Metrics.incr_gauge t.metrics "quarantined_plans"

let is_supervised_failure (d : Diag.t) =
  match d.Diag.code with
  | Diag.Exec_timeout | Diag.Exec_crashed | Diag.Exec_limit -> true
  | _ -> false

(* The one sandbox-policy decision: [on] runs everything as a
   supervised subprocess (an in-process dlopen cannot be resource-capped
   or killed, so a requested dlopen is overridden, visibly: "sandboxed"
   is true in the reply); [dlopen-trusted] honours the request, and no
   request is auto ({!Native.prepare}'s dlopen -> subprocess fallback). *)
let exec_mode t requested =
  match t.exec_sandbox with
  | Supervisor.Sandboxed -> Some Native.Subprocess
  | Supervisor.Dlopen_trusted -> requested

let sandboxed t = Jsonx.Bool (t.exec_sandbox = Supervisor.Sandboxed)

(* A native execution behind the per-fingerprint circuit breaker.  A
   quarantined plan is not run: [Error (`Quarantined warning)], whose
   message ends in [fallback_note].  A supervised failure strikes the
   breaker before coming back as [Error (`Failed d)]; a success closes
   a half-open breaker. *)
let guarded_exec t ~fp ~seed ~fallback_note p run =
  match Supervisor.Breaker.check t.breaker fp with
  | Supervisor.Breaker.Quarantined qd ->
    Error
      (`Quarantined
        (Diag.warningf Diag.Exec_failed
           "plan quarantined after %d consecutive native failures (last: %s); %s"
           (Supervisor.Breaker.threshold t.breaker)
           (Diag.to_string qd) fallback_note))
  | Supervisor.Breaker.Allow | Supervisor.Breaker.Probe -> (
    match run () with
    | Ok res ->
      if Supervisor.Breaker.record_success t.breaker fp then
        Metrics.decr_gauge t.metrics "quarantined_plans";
      Ok res
    | Error d ->
      if is_supervised_failure d then record_exec_failure t ~fp ~seed p d;
      Error (`Failed d))

let handle_fuse_exec t ~deadline (e : Protocol.fuse_exec_request) =
  match plan t ~deadline ?size:(size_of e.Protocol.width e.Protocol.height) e.Protocol.fuse with
  | Error d -> Protocol.error d
  | Ok ((r, _, _) as served) -> (
    let p = r.F.Driver.fused in
    let width = p.Ir.Pipeline.width and height = p.Ir.Pipeline.height in
    let rng = Kfuse_util.Rng.create e.Protocol.seed in
    let inputs =
      List.map
        (fun n -> (n, Image.random rng ~width ~height ~lo:0.0 ~hi:1.0))
        p.Ir.Pipeline.inputs
    in
    (* Planning may have eaten the whole request budget (cache miss on a
       slow search): fail typed before paying for a compile. *)
    match Deadline.check deadline with
    | exception Deadline.Expired _ ->
      Metrics.incr t.metrics "requests_timed_out";
      Protocol.error
        (Diag.errorf Diag.Request_timeout
           "request deadline expired after planning, before native execution")
    | () -> (
      let run () =
        Native.run ?mode:(exec_mode t e.Protocol.exec_mode) ~deadline ~limits:t.exec_limits
          ?cache_dir:(native_cache_dir t) ~repeat:e.Protocol.repeat p inputs
      in
      match
        guarded_exec t ~fp:(Fingerprint.exact p) ~seed:e.Protocol.seed
          ~fallback_note:"served by the interpreter" p run
      with
      | Error (`Quarantined warning) ->
        interpreter_fallback t ~served ~warning ~verify:e.Protocol.verify
          ~return_pixels:e.Protocol.return_pixels p inputs
      | Error (`Failed d) -> Protocol.error d
      | Ok res ->
        let verify_fields =
          if not e.Protocol.verify then []
          else begin
            (* Both sides sort outputs by name, so positional zip holds. *)
            let reference = Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs) in
            let diff =
              List.fold_left2
                (fun acc (_, want) (_, got) -> Float.max acc (Image.max_abs_diff want got))
                0.0 reference res.Native.outputs
            in
            [ ("max_abs_diff", Jsonx.Num diff) ]
          end
        in
        Protocol.ok
          (plan_fields served
          @ [
              ( "exec",
                Jsonx.Obj
                  [
                    ("mode", Jsonx.Str (Native.mode_to_string res.Native.mode_used));
                    ("sandboxed", sandboxed t);
                    ("quarantined", Jsonx.Bool false);
                    ("artifact", Jsonx.Str res.Native.artifact);
                    ("artifact_cached", Jsonx.Bool res.Native.cached);
                    ("compile_ms", Jsonx.Num res.Native.compile_ms);
                    ("exec_ms", Jsonx.Num res.Native.exec_ms);
                    ( "samples_ms",
                      Jsonx.Arr (List.map (fun s -> Jsonx.Num s) res.Native.samples_ms) );
                    ("warnings", warnings_json res.Native.warnings);
                  ] );
              ( "outputs",
                Jsonx.Arr
                  (List.map
                     (output_json ~return_pixels:e.Protocol.return_pixels)
                     res.Native.outputs) );
            ]
          @ verify_fields)))

(* ---- streams ---- *)

(* Pin the native backend for a new stream under the server's sandbox
   policy.  [Ok (None, warns)] is an interpreter-only stream — the
   daemon stays useful on hosts without a C toolchain. *)
let prepare_stream_plan t ~requested p =
  match Native.prepare ?mode:(exec_mode t requested) ?cache_dir:(native_cache_dir t) p with
  | Ok pl -> Ok (Some pl, Native.plan_warnings pl)
  | Error d when d.Diag.code = Diag.Toolchain_missing ->
    Ok
      ( None,
        [ Diag.warningf Diag.Toolchain_missing "%s; stream served by the interpreter" d.Diag.message ] )
  | Error _ as e -> e

let handle_stream_open t ~deadline (o : Protocol.stream_open_request) =
  Session_table.expire_idle t.streams;
  match plan t ~deadline ?size:(size_of o.Protocol.width o.Protocol.height) o.Protocol.fuse with
  | Error d -> Protocol.error d
  | Ok ((r, _, _) as served) -> (
    let p = r.F.Driver.fused in
    match Session.create p with
    | Error d -> Protocol.error d
    | Ok session -> (
      match Deadline.check deadline with
      | exception Deadline.Expired _ ->
        Metrics.incr t.metrics "requests_timed_out";
        Protocol.error
          (Diag.errorf Diag.Request_timeout
             "request deadline expired after planning, before the stream compile")
      | () -> (
        let warns = ref [] in
        let opened =
          Session_table.open_ t.streams (fun () ->
              prepare_stream_plan t ~requested:o.Protocol.exec_mode p
              |> Result.map (fun (plan_opt, w) ->
                     warns := w;
                     {
                       session;
                       stream_seed = o.Protocol.seed;
                       stream_fp = Fingerprint.exact p;
                       stream_plan = plan_opt;
                       s_lock = Mutex.create ();
                     }))
        in
        match opened with
        | Error d -> Protocol.error d
        | Ok entry ->
          let st = Session_table.value entry in
          let mode, artifact, cached, compile_ms =
            match st.stream_plan with
            | None -> ("interpreter", "", false, 0.0)
            | Some pl ->
              ( Native.mode_to_string (Native.plan_mode pl),
                Native.plan_artifact pl,
                Native.plan_cached pl,
                Native.plan_compile_ms pl )
          in
          Protocol.ok
            (plan_fields served
            @ [
                ("id", Jsonx.Str (Session_table.id entry));
                ("depth", Jsonx.Num (float_of_int (Session.depth session)));
                ("width", Jsonx.Num (float_of_int p.Ir.Pipeline.width));
                ("height", Jsonx.Num (float_of_int p.Ir.Pipeline.height));
                ("seed", Jsonx.Num (float_of_int o.Protocol.seed));
                ( "exec",
                  Jsonx.Obj
                    [
                      ("mode", Jsonx.Str mode);
                      ("sandboxed", sandboxed t);
                      ("artifact", Jsonx.Str artifact);
                      ("artifact_cached", Jsonx.Bool cached);
                      ("compile_ms", Jsonx.Num compile_ms);
                      ("warnings", warnings_json !warns);
                    ] );
              ]))))

let handle_stream_push t ~deadline (s : Protocol.stream_push_request) =
  Session_table.expire_idle t.streams;
  let forced_shed =
    match Faults.hit "stream.shed" with
    | () -> false
    | exception Faults.Fault _ -> true
  in
  (* Shed BEFORE touching temporal state: the frame was not processed
     and the stream did not advance, so the client can retry the push
     verbatim. *)
  let refuse ~in_flight =
    if forced_shed || in_flight >= t.stream_queue then begin
      Metrics.incr t.metrics "frames_shed";
      Some
        (Diag.errorf Diag.Stream_backpressure
           "stream %S frame queue full (%d in flight of %d): frame dropped, retry with \
            backoff"
           s.Protocol.id in_flight t.stream_queue)
    end
    else None
  in
  reply_of
  @@ Session_table.with_session ~refuse t.streams s.Protocol.id
  @@ fun entry ->
  let st = Session_table.value entry in
  Mutex.lock st.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.s_lock) @@ fun () ->
  if Session_table.is_closed t.streams entry then
    Protocol.error (Session_table.unknown t.streams s.Protocol.id)
  else begin
    let session = st.session in
    let p = Session.pipeline session in
    let params = Session.params session in
    let seq = Session.frames session in
    let frame =
      Frames.synthetic ~seed:st.stream_seed ~width:p.Ir.Pipeline.width
        ~height:p.Ir.Pipeline.height ~index:seq
    in
    let bindings = Session.bindings session frame in
    let interp () =
      let t0 = Unix.gettimeofday () in
      let outs = Ir.Eval.run_outputs ~params p (Ir.Eval.env_of_list bindings) in
      (outs, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    (* (outputs, mode, quarantined, fallback, exec_ms, warnings,
       max_abs_diff when verify). *)
    let outputs, mode, quarantined, fallback, exec_ms, warns, diff =
      match st.stream_plan with
      | None ->
        let outs, ms = interp () in
        (outs, "interpreter", false, false, ms, [], Some 0.0)
      | Some pl -> (
        match
          guarded_exec t ~fp:st.stream_fp ~seed:st.stream_seed
            ~fallback_note:"frame served by the interpreter" p (fun () ->
              Native.run_plan ~params ~deadline ~limits:t.exec_limits pl bindings)
        with
        | Ok res ->
          let diff =
            if not s.Protocol.verify then None
            else begin
              let reference, _ = interp () in
              Some
                (List.fold_left2
                   (fun acc (_, want) (_, got) ->
                     Float.max acc (Image.max_abs_diff want got))
                   0.0 reference res.Native.outputs)
            end
          in
          ( res.Native.outputs,
            Native.mode_to_string res.Native.mode_used,
            false, false, res.Native.exec_ms, [], diff )
        | Error failure ->
          (* The frame still ships: fall back to the interpreter on
             the SAME bindings, then advance — the stream's pixel
             history is identical to an all-interpreter run, which is
             exactly what the chaos oracle asserts. *)
          let quarantined, warning =
            match failure with
            | `Quarantined w -> (true, w)
            | `Failed d -> (false, { d with Diag.severity = Diag.Warning })
          in
          Metrics.incr t.metrics "native_exec_fallbacks";
          let outs, ms = interp () in
          (outs, "interpreter", quarantined, true, ms, [ warning ], Some 0.0))
    in
    Session.advance session frame;
    Metrics.incr t.metrics "frames_pushed";
    Protocol.ok
      ([
         ("id", Jsonx.Str (Session_table.id entry));
         ("seq", Jsonx.Num (float_of_int seq));
         ("frames", Jsonx.Num (float_of_int (seq + 1)));
         ( "exec",
           Jsonx.Obj
             [
               ("mode", Jsonx.Str mode);
               ("sandboxed", sandboxed t);
               ("quarantined", Jsonx.Bool quarantined);
               ("fallback", Jsonx.Bool fallback);
               ("exec_ms", Jsonx.Num exec_ms);
               ("warnings", warnings_json warns);
             ] );
         ( "outputs",
           Jsonx.Arr
             (List.map (output_json ~return_pixels:s.Protocol.return_pixels) outputs)
         );
       ]
      @ match diff with
        | Some d when s.Protocol.verify -> [ ("max_abs_diff", Jsonx.Num d) ]
        | _ -> [])
  end

let handle_stream_close t id =
  Session_table.expire_idle t.streams;
  reply_of
  @@ Result.map
       (fun entry ->
         (* Wait for a draining push before reading the frame count; the
            table releases the plan once the last push is out. *)
         let st = Session_table.value entry in
         Mutex.lock st.s_lock;
         let frames = Session.frames st.session in
         Mutex.unlock st.s_lock;
         Protocol.ok [ ("id", Jsonx.Str id); ("frames", Jsonx.Num (float_of_int frames)) ])
       (Session_table.close t.streams id)

(* ---- lazy sessions ---- *)

let lazy_state_fields builder =
  [
    ("name", Jsonx.Str (Lz.Lazy_pipeline.name builder));
    ("width", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.width builder)));
    ("height", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.height builder)));
    ("channels", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.channels builder)));
    ("generation", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.generation builder)));
    ( "inputs",
      Jsonx.Arr (List.map (fun i -> Jsonx.Str i) (Lz.Lazy_pipeline.inputs builder)) );
    ( "kernels",
      Jsonx.Arr
        (List.map
           (fun k -> Jsonx.Str k.Ir.Kernel.name)
           (Lz.Lazy_pipeline.kernels builder)) );
  ]

(* Input names reach DSL source later (the [add] command's expression
   scope), so reject anything that is not an identifier at the door. *)
let valid_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let handle_lazy_open t (o : Protocol.lazy_open_request) =
  Session_table.expire_idle t.lazies;
  let config =
    Protocol.fusion_config ~c_mshared:o.Protocol.c_mshared ~gamma:o.Protocol.gamma
      ~tg:o.Protocol.tg
  in
  match F.Config.validate_result config with
  | Error d -> Protocol.error d
  | Ok () -> (
    let seeded =
      match (o.Protocol.app, o.Protocol.source) with
      | None, None -> (
        (* The codec guarantees width/height for an empty builder. *)
        let width = Option.get o.Protocol.width
        and height = Option.get o.Protocol.height in
        let rec dup = function
          | [] -> None
          | x :: rest -> if List.mem x rest then Some x else dup rest
        in
        match
          ( List.find_opt (fun i -> not (valid_ident i)) o.Protocol.inputs,
            dup o.Protocol.inputs )
        with
        | Some bad, _ ->
          Error (Diag.errorf Diag.Elab_error "input %S is not an identifier" bad)
        | None, Some d ->
          Error (Diag.errorf Diag.Duplicate_name "duplicate input %S" d)
        | None, None ->
          Ok
            (Lz.Lazy_pipeline.create
               ~channels:(Option.value ~default:1 o.Protocol.channels)
               ~inputs:o.Protocol.inputs ~width ~height config))
      | _ -> (
        let fr =
          {
            Protocol.app = o.Protocol.app;
            source = o.Protocol.source;
            strategy = F.Driver.Mincut;
            c_mshared = None;
            gamma = None;
            tg = None;
            optimize = false;
            inline = false;
            strict = false;
            budget_ms = None;
            no_cache = false;
          }
        in
        let size = size_of o.Protocol.width o.Protocol.height in
        match Result.bind (load_pipeline ?size fr) validated with
        | Error _ as e -> e
        | Ok p -> Ok (Lz.Lazy_pipeline.of_pipeline config p))
    in
    let opened =
      Result.bind seeded (fun builder ->
          Session_table.open_ t.lazies (fun () ->
              Ok { builder; lz_lock = Mutex.create (); lz_flushes = 0 }))
    in
    match opened with
    | Error d -> Protocol.error d
    | Ok entry ->
      Protocol.ok
        (("id", Jsonx.Str (Session_table.id entry))
        :: lazy_state_fields (Session_table.value entry).builder))

(* Run [f] on lazy session [id] under its lock, holding it in the table
   so idle expiry cannot reap it mid-operation. *)
let with_lazy t id f =
  Session_table.expire_idle t.lazies;
  reply_of
  @@ Session_table.with_session t.lazies id
  @@ fun entry ->
  let lz = Session_table.value entry in
  Mutex.lock lz.lz_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lz.lz_lock) (fun () -> f lz)

let handle_lazy_edit t (e : Protocol.lazy_edit_request) =
  with_lazy t e.Protocol.id @@ fun lz ->
  let applied =
    Result.bind (Lz.Command.parse lz.builder e.Protocol.command) (Lz.Command.apply lz.builder)
  in
  match applied with
  | Error d -> Protocol.error d
  | Ok description ->
    Metrics.incr t.metrics "lazy_edits";
    Protocol.ok
      (("id", Jsonx.Str e.Protocol.id)
      :: ("applied", Jsonx.Str description)
      :: lazy_state_fields lz.builder)

let lazy_plan_fields ~id ~scratch ~replan_ms (pl : Lz.Replan.plan) =
  let s = pl.Lz.Replan.stats in
  let int n = Jsonx.Num (float_of_int n) in
  [
    ("id", Jsonx.Str id);
    ("scratch", Jsonx.Bool scratch);
    ("kernels_in", int (Ir.Pipeline.num_kernels pl.Lz.Replan.pipeline));
    ("kernels_out", int (Ir.Pipeline.num_kernels pl.Lz.Replan.fused));
    ("objective", Jsonx.Num pl.Lz.Replan.objective);
    ("fingerprint", Jsonx.Str pl.Lz.Replan.fingerprint);
    ( "partition",
      Jsonx.Arr
        (List.map
           (fun b -> Jsonx.Arr (block_names pl.Lz.Replan.pipeline b))
           pl.Lz.Replan.partition) );
    ( "replan",
      Jsonx.Obj
        [
          ("blocks_reused", int s.Lz.Replan.blocks_reused);
          ("blocks_replanned", int s.Lz.Replan.blocks_replanned);
          ("edges_reused", int s.Lz.Replan.edges_reused);
          ("edges_rescored", int s.Lz.Replan.edges_rescored);
          ("fell_back", Jsonx.Bool s.Lz.Replan.fell_back);
          ("replan_ms", Jsonx.Num replan_ms);
        ] );
  ]

let handle_lazy_flush t (f : Protocol.lazy_flush_request) =
  with_lazy t f.Protocol.id @@ fun lz ->
  let t0 = Unix.gettimeofday () in
  let planned =
    if f.Protocol.scratch then Lz.Lazy_pipeline.flush_scratch ~pool:t.pool lz.builder
    else Lz.Lazy_pipeline.flush ~pool:t.pool lz.builder
  in
  match planned with
  | Error d -> Protocol.error d
  | Ok plan ->
    lz.lz_flushes <- lz.lz_flushes + 1;
    Metrics.incr t.metrics "lazy_flushes";
    Protocol.ok
      (lazy_plan_fields ~id:f.Protocol.id ~scratch:f.Protocol.scratch
         ~replan_ms:((Unix.gettimeofday () -. t0) *. 1000.)
         plan)

let handle_lazy_close t id =
  Session_table.expire_idle t.lazies;
  reply_of
  @@ Result.map
       (fun entry ->
         let flushes = (Session_table.value entry).lz_flushes in
         Protocol.ok [ ("id", Jsonx.Str id); ("flushes", Jsonx.Num (float_of_int flushes)) ])
       (Session_table.close t.lazies id)

let stats_json t =
  Session_table.expire_idle t.streams;
  Session_table.expire_idle t.lazies;
  let limits = Frontend.limits t.fe in
  let c = Plan_cache.stats t.cache in
  let latency_json op =
    match Metrics.latency t.metrics op with
    | None -> Jsonx.Null
    | Some q ->
      Jsonx.Obj
        [
          ("samples", Jsonx.Num (float_of_int q.Kfuse_util.Stats.samples));
          ("p50_ms", Jsonx.Num q.Kfuse_util.Stats.p50);
          ("p90_ms", Jsonx.Num q.Kfuse_util.Stats.p90);
          ("p95_ms", Jsonx.Num q.Kfuse_util.Stats.p95);
          ("p99_ms", Jsonx.Num q.Kfuse_util.Stats.p99);
          ("max_ms", Jsonx.Num q.Kfuse_util.Stats.q_max);
          ("mean_ms", Jsonx.Num q.Kfuse_util.Stats.q_mean);
        ]
  in
  let requests_json op =
    let total, errors = Metrics.requests t.metrics op in
    Jsonx.Obj
      [
        ("total", Jsonx.Num (float_of_int total));
        ("errors", Jsonx.Num (float_of_int errors));
        ("latency", latency_json op);
      ]
  in
  let count name = Jsonx.Num (float_of_int (Metrics.counter t.metrics name)) in
  Protocol.ok
    [
      ("uptime_s", Jsonx.Num (Unix.gettimeofday () -. t.started_at));
      ( "cache",
        Jsonx.Obj
          [
            ("entries", Jsonx.Num (float_of_int c.Plan_cache.entries));
            ("capacity", Jsonx.Num (float_of_int c.Plan_cache.capacity));
            ("hits", Jsonx.Num (float_of_int c.Plan_cache.hits));
            ("disk_hits", Jsonx.Num (float_of_int c.Plan_cache.disk_hits));
            ("misses", Jsonx.Num (float_of_int c.Plan_cache.misses));
            ("iso_misses", Jsonx.Num (float_of_int c.Plan_cache.iso_misses));
            ("evictions", Jsonx.Num (float_of_int c.Plan_cache.evictions));
            ("stores", Jsonx.Num (float_of_int c.Plan_cache.stores));
            ("disk_errors", Jsonx.Num (float_of_int c.Plan_cache.disk_errors));
            ("hit_rate", Jsonx.Num (Plan_cache.hit_rate c));
          ] );
      ( "requests",
        Jsonx.Obj (List.map (fun op -> (op, requests_json op)) (Metrics.ops t.metrics)) );
      ( "connections",
        Jsonx.Obj
          [
            ("accepted", count "connections_accepted");
            ("dropped", count "connections_dropped");
            ( "active",
              Jsonx.Num (float_of_int (Metrics.gauge t.metrics "connections_active")) );
            ("shed", count "requests_shed");
            ("timed_out", count "requests_timed_out");
          ] );
      ( "limits",
        Jsonx.Obj
          [
            ("max_conns", Jsonx.Num (float_of_int limits.Frontend.max_conns));
            ("queue", Jsonx.Num (float_of_int limits.Frontend.queue));
            ("request_timeout_ms", Jsonx.Num limits.Frontend.request_timeout_ms);
            ("drain_timeout_ms", Jsonx.Num limits.Frontend.drain_timeout_ms);
          ] );
      ( "native_exec",
        Jsonx.Obj
          [
            ("sandbox", Jsonx.Str (Supervisor.policy_to_string t.exec_sandbox));
            ("crashes", count "native_exec_crashes");
            ("timeouts", count "native_exec_timeouts");
            ("limit_hits", count "native_exec_limits");
            ("fallbacks", count "native_exec_fallbacks");
            ( "quarantined",
              Jsonx.Num (float_of_int (Metrics.gauge t.metrics "quarantined_plans")) );
            ("crash_dir", Jsonx.Str t.crash_dir);
          ] );
      ( "streams",
        Jsonx.Obj
          [
            ( "active",
              Jsonx.Num (float_of_int (Metrics.gauge t.metrics "streams_active")) );
            ("opened", count "streams_opened");
            ("closed", count "streams_closed");
            ("expired", count "streams_expired");
            ("shed", count "streams_shed");
            ("frames_pushed", count "frames_pushed");
            ("frames_shed", count "frames_shed");
            ("max_streams", Jsonx.Num (float_of_int t.max_streams));
            ("stream_queue", Jsonx.Num (float_of_int t.stream_queue));
            ("stream_idle_ms", Jsonx.Num t.stream_idle_ms);
          ] );
      ( "lazy",
        Jsonx.Obj
          [
            ( "active",
              Jsonx.Num (float_of_int (Metrics.gauge t.metrics "lazy_active")) );
            ("opened", count "lazy_opened");
            ("closed", count "lazy_closed");
            ("expired", count "lazy_expired");
            ("shed", count "lazy_shed");
            ("edits", count "lazy_edits");
            ("flushes", count "lazy_flushes");
          ] );
    ]

let handle t ~deadline = function
  | Protocol.Stats -> stats_json t
  | Protocol.Metrics ->
    let text =
      Metrics.render t.metrics ~cache:(Plan_cache.stats t.cache)
        ~uptime_s:(Unix.gettimeofday () -. t.started_at)
    in
    Protocol.ok [ ("text", Jsonx.Str text) ]
  | Protocol.Fuse f -> handle_fuse t ~deadline f
  | Protocol.Fuse_exec e -> handle_fuse_exec t ~deadline e
  | Protocol.Stream_open o -> handle_stream_open t ~deadline o
  | Protocol.Stream_push s -> handle_stream_push t ~deadline s
  | Protocol.Stream_close id -> handle_stream_close t id
  | Protocol.Lazy_open o -> handle_lazy_open t o
  | Protocol.Lazy_edit e -> handle_lazy_edit t e
  | Protocol.Lazy_flush f -> handle_lazy_flush t f
  | Protocol.Lazy_close id -> handle_lazy_close t id
  | (Protocol.Ping | Protocol.Shutdown) as req ->
    (* Answered by the front-end before it reaches a handler. *)
    invalid_arg ("Server.handle: " ^ Protocol.op_name req)

(* ---- lifecycle ---- *)

let claim_socket = Frontend.claim_socket

let default_crash_dir () = Filename.concat (Plan_cache.default_dir ()) "crash-corpus"

let start ~socket:path ~cache ~pool ?budget_ms ?(max_conns = 16) ?(queue = 64)
    ?(request_timeout_ms = 30_000.0) ?(drain_timeout_ms = 5_000.0)
    ?(exec_sandbox = Supervisor.Sandboxed) ?(exec_limits = Supervisor.default_limits)
    ?crash_dir ?(breaker_threshold = 3) ?(breaker_cooldown_ms = 60_000.0)
    ?(max_streams = 64) ?(stream_queue = 4) ?(stream_idle_ms = 60_000.0) () =
  let limits = { Frontend.max_conns; queue; request_timeout_ms; drain_timeout_ms } in
  let checked =
    Result.bind (Frontend.validate_limits limits) (fun () ->
        if max_streams < 1 then
          Error (Diag.errorf Diag.Config_invalid "max_streams must be >= 1 (got %d)" max_streams)
        else if stream_queue < 1 then
          Error
            (Diag.errorf Diag.Config_invalid "stream_queue must be >= 1 (got %d)" stream_queue)
        else if breaker_threshold < 1 then
          Error
            (Diag.errorf Diag.Config_invalid "breaker_threshold must be >= 1 (got %d)"
               breaker_threshold)
        else claim_socket path)
  in
  match Result.bind checked (fun () -> Frontend.create ~socket:path ~role:"server" limits) with
  | Error _ as e -> e
  | Ok fe ->
    let metrics = Frontend.metrics fe in
    List.iter (Metrics.touch metrics)
      [
        "native_exec_crashes"; "native_exec_timeouts"; "native_exec_limits";
        "native_exec_fallbacks"; "frames_pushed"; "frames_shed"; "lazy_edits";
        "lazy_flushes";
      ];
    Metrics.adjust_gauge metrics "quarantined_plans" 0;
    let table ~family ~noun ~id_prefix ~full ?on_release () =
      Session_table.create ~metrics ~family ~noun ~id_prefix ~capacity:max_streams
        ~idle_ms:stream_idle_ms ?on_release
        ~full:(fun cap -> Diag.errorf Diag.Overloaded "server at --max-streams (%d)%s" cap full)
        ()
    in
    let t =
      {
        fe;
        cache;
        pool;
        default_budget_ms = budget_ms;
        metrics;
        exec_sandbox;
        exec_limits;
        crash_dir = (match crash_dir with Some d -> d | None -> default_crash_dir ());
        breaker =
          Supervisor.Breaker.create ~threshold:breaker_threshold
            ~cooldown_ms:breaker_cooldown_ms ();
        started_at = Unix.gettimeofday ();
        streams =
          table ~family:"streams" ~noun:"stream" ~id_prefix:"st"
            ~full:": close a stream or retry with backoff"
            ~on_release:(fun st -> Option.iter Native.release st.stream_plan)
            ();
        lazies =
          table ~family:"lazy" ~noun:"lazy session" ~id_prefix:"lz"
            ~full:" lazy sessions: close one or retry with backoff" ();
        max_streams;
        stream_queue;
        stream_idle_ms;
      }
    in
    Frontend.serve fe (handle t);
    Ok t

(* Workers are joined by the time the sessions are drained, so no
   operation holds one: every stream's pinned plan is released before
   the process exits. *)
let wait t =
  Frontend.wait t.fe ~after_drain:(fun () ->
      Session_table.release_all t.streams;
      Session_table.release_all t.lazies)

let signal_stop t = Frontend.signal_stop t.fe

let stop t =
  Frontend.request_stop t.fe;
  wait t
