(* The three workloads, their answer checks, the traced layer replay and
   the metrics.  See ../README.md for why each workload exists and which
   layer each per-layer metric times. *)

module J = Kfuse_service.Jsonx
module P = Kfuse_service.Protocol
module Client = Kfuse_service.Client
module Diag = Kfuse_util.Diag
module Rng = Kfuse_util.Rng
module Iset = Kfuse_util.Iset
module F = Kfuse_fusion
module Ir = Kfuse_ir
module Image = Kfuse_image.Image
module Native = Kfuse_exec.Native
module Toolchain = Kfuse_exec.Toolchain
module Fingerprint = Kfuse_cache.Fingerprint
module Plan_cache = Kfuse_cache.Plan_cache
module Session = Kfuse_stream.Session
module Frames = Kfuse_stream.Frames
module Lz = Kfuse_lazy

let workloads = [ "oneshot"; "stream"; "plan" ]

(* ---- metric names (BENCHMARK.json lists the same) ---- *)

type metric = { name : string; unit_ : string; better : string }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "latency_p50_ms" "ms" "lower";
    m "latency_p90_ms" "ms" "lower";
    m "ops_per_s" "1/s" "higher";
    m "success_ratio" "ratio" "higher";
    m "server_rss_peak_mb" "MiB" "lower";
  ]

(* Layers timed by a span around one public call each; every one is
   reported as its median ([_ms]) and sample count ([_n]). *)
let timed_layers =
  [
    "service.overhead"; "dsl.parse"; "ir.validate"; "cache.fingerprint"; "cache.lookup";
    "fusion.score"; "fusion.mincut"; "fusion.audit"; "lazy.edit"; "lazy.flush";
    "image.synth"; "stream.window"; "codegen.lower"; "exec.compile"; "exec.run";
    "exec.kernel"; "exec.spawn_io";
  ]

let per_layer =
  List.concat_map
    (fun l -> [ m (l ^ "_ms") "ms" "lower"; m (l ^ "_n") "count" "higher" ])
    timed_layers
  @ [
      m "service.reply_bytes" "bytes" "lower";
      m "service.error_replies" "count" "lower";
      m "cache.hit_ratio" "ratio" "higher";
      m "cache.lookups" "count" "higher";
      m "fusion.kernels_in" "count" "lower";
      m "fusion.kernels_out" "count" "lower";
      m "lazy.blocks_reused_ratio" "ratio" "higher";
      m "lazy.blocks" "count" "higher";
      m "codegen.c_bytes" "bytes" "lower";
      m "exec.compiles" "count" "lower";
      m "exec.fused_speedup" "x" "higher";
      m "exec.fused_speedup_apps" "count" "higher";
      m "trace.overhead_ratio" "ratio" "lower";
      m "trace.untraced_p50_ms" "ms" "lower";
      m "trace.traced_p50_ms" "ms" "lower";
      m "trace.spans" "count" "higher";
    ]

(* ---- run configuration ---- *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  kfusec : string;
  sizes : Reqgen.sizes;
  base : string;  (** parent of the per-server run roots *)
  out_dir : string;  (** trace and result files *)
}

let fusion_config = F.Config.default

(* Fresh kfused set-ups per run; [setup_s] is their median. *)
let setups = 3

(* The end-to-end timed phase runs on until the p90 is supported. *)
let min_samples = Pct.samples_needed ~p:90.0

(* Timed oneshot (app, seed) pairs re-sent with [verify]. *)
let verify_sample = 2

(* ---- small helpers ---- *)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

let ( let* ) = Result.bind

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let or_fail = Reqgen.or_fail

(* Set on SIGTERM/SIGINT: the timed phase stops early and the run still
   stops its server and removes its root before reporting the interrupt. *)
let interrupted = Atomic.make false

(* ---- tallies ---- *)

type tally = {
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable lat_ms : float list;  (** successful timed operations *)
  mutable first_errors : string list;
}

let tally () = { lock = Mutex.create (); attempted = 0; failed = 0; lat_ms = []; first_errors = [] }

let locked tl f =
  Mutex.lock tl.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tl.lock) f

let note_fail tl msg =
  locked tl (fun () ->
      tl.failed <- tl.failed + 1;
      if List.length tl.first_errors < 8 then tl.first_errors <- msg :: tl.first_errors)

(* [count tl ?ms r] files one attempted operation: a success (with its
   latency when it was timed) or a failure with its reason. *)
let count tl ?ms = function
  | Ok () ->
    locked tl (fun () ->
        tl.attempted <- tl.attempted + 1;
        Option.iter (fun ms -> tl.lat_ms <- ms :: tl.lat_ms) ms)
  | Error msg ->
    locked tl (fun () -> tl.attempted <- tl.attempted + 1);
    note_fail tl msg

(* ---- reply checks ---- *)

let rpc srv req =
  match Kfused.call srv req with Ok v -> Ok v | Error d -> Error (Diag.to_string d)

let num k v = Option.value ~default:0.0 (J.mem_num k v)

type out_stat = { oname : string; lo : float; hi : float; mean : float }

let out_stats reply =
  List.map
    (fun o ->
      {
        oname = Option.value ~default:"" (J.mem_str "name" o);
        lo = num "min" o;
        hi = num "max" o;
        mean = num "mean" o;
      })
    (Option.value ~default:[] (Option.bind (J.member "outputs" reply) J.arr))

(* The reply's per-output summary, computed the way kfused does. *)
let stat_of (name, img) =
  let lo = ref Float.infinity and hi = ref Float.neg_infinity and sum = ref 0.0 in
  for y = 0 to Image.height img - 1 do
    for x = 0 to Image.width img - 1 do
      let v = Image.get img x y in
      if v < !lo then lo := v;
      if v > !hi then hi := v;
      sum := !sum +. v
    done
  done;
  { oname = name; lo = !lo; hi = !hi; mean = !sum /. float_of_int (max 1 (Image.width img * Image.height img)) }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_stats a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> x.oname = y.oname && same_bits x.lo y.lo && same_bits x.hi y.hi && same_bits x.mean y.mean)
       a b

(* An exec reply must come from the sandboxed subprocess path: any other
   mode measures a different program. *)
let check_exec reply =
  match J.member "exec" reply with
  | None -> errf "reply has no exec object"
  | Some e ->
    if J.mem_str "mode" e <> Some "subprocess" then
      errf "exec mode %s, expected a subprocess run"
        (Option.value ~default:"?" (J.mem_str "mode" e))
    else if J.mem_bool "sandboxed" e <> Some true then errf "exec reply not sandboxed"
    else if J.mem_bool "quarantined" e = Some true then errf "quarantined plan"
    else if J.mem_bool "fallback" e = Some true then errf "interpreter fallback"
    else if J.mem_bool "degraded" reply = Some true then errf "degraded plan"
    else if out_stats reply = [] then errf "reply has no outputs"
    else Ok e

let check_exact reply =
  match J.mem_num "max_abs_diff" reply with
  | Some d when Float.equal d 0.0 -> Ok ()
  | Some d -> errf "verify: max_abs_diff = %g" d
  | None -> errf "verify reply has no max_abs_diff"

(* ---- the traced replay ---- *)

(* What the traced run pins per pipeline: the input and fused pipelines
   and the two native plans (subprocess = what kfused runs, dlopen = the
   bare kernel). *)
type pinned = {
  input : Ir.Pipeline.t;
  fused : Ir.Pipeline.t;
  sub : Native.plan;
  dl : Native.plan;
}

type tctx = {
  tr : Tracer.t;
  mirror : Plan_cache.t;  (** in-process stand-in for kfused's plan cache *)
  native_dir : string;  (** the replay's own, initially empty, artifact cache *)
  next_req : int Atomic.t;
}

(* The request a layer span belongs to, and the thread that made it. *)
type scope = { c : tctx; tid : int; req : int }

let span sc ?sample name f = Tracer.span sc.c.tr ?sample ~tid:sc.tid ~req:sc.req name f

let sample sc name v = Tracer.add_sample sc.c.tr name v

(* [request c ~tid ~op f] runs [f] under a new request's parent span. *)
let request c ~tid ~op f =
  let req = Atomic.fetch_and_add c.next_req 1 in
  Tracer.request c.tr ~tid ~req ~op (fun () -> f { c; tid; req })

(* Plan [p] in-process in kfused's order: validate, fingerprint, look up,
   and on a miss score, search and audit. *)
let replay_plan sc p =
  let p = span sc "ir.validate" (fun () -> or_fail "validate" (Ir.Validate.result p)) in
  let key =
    span sc "cache.fingerprint" (fun () ->
        Fingerprint.plan_key ~config:fusion_config ~strategy:F.Driver.Mincut ~optimize:false
          ~inline:false p)
  in
  match span sc "cache.lookup" (fun () -> Plan_cache.find sc.c.mirror key) with
  | Some (r, _) -> r
  | None ->
    ignore (span sc "fusion.score" (fun () -> F.Benefit.all_edges fusion_config p));
    let r = span sc "fusion.mincut" (fun () -> F.Driver.run fusion_config F.Driver.Mincut p) in
    ignore
      (span sc "fusion.audit" (fun () ->
           or_fail "audit"
             (F.Legality.check_partition fusion_config r.F.Driver.input r.F.Driver.partition)));
    Plan_cache.store sc.c.mirror key r;
    r

(* Lower, compile on the replay's empty cache, and pin both plans.  No
   pinned plan is ever released (nor run through [Native.run ~mode:Dlopen]):
   both dlclose an OpenMP object, which can unmap libgomp under its parked
   worker threads (ROADMAP item 1). *)
let replay_build sc p =
  let r = replay_plan sc p in
  let fused = r.F.Driver.fused in
  let src = span sc "codegen.lower" (fun () -> Native.source ~mode:Native.Subprocess fused) in
  sample sc "codegen.c_bytes" (float_of_int (String.length src));
  let before = Native.compiles () in
  ignore
    (span sc "exec.compile" (fun () ->
         or_fail "compile" (Native.compile ~cache_dir:sc.c.native_dir ~mode:Native.Subprocess fused)));
  sample sc "exec.compiles" (float_of_int (Native.compiles () - before));
  let prep mode = or_fail "prepare" (Native.prepare ~cache_dir:sc.c.native_dir ~mode fused) in
  { input = p; fused; sub = prep Native.Subprocess; dl = prep Native.Dlopen }

(* Run both pinned plans on [inputs]: [exec.run] is the subprocess run
   kfused makes, [exec.kernel] the in-process kernel, their difference
   the spawn and file I/O.  The kernel's outputs must match the reply. *)
let replay_exec sc ?params pn inputs reply =
  let sub, run_ms =
    timed (fun () ->
        span sc "exec.run" (fun () -> or_fail "run" (Native.run_plan ?params pn.sub inputs)))
  in
  let dl, kernel_ms =
    timed (fun () ->
        span sc "exec.kernel" (fun () -> or_fail "run" (Native.run_plan ?params pn.dl inputs)))
  in
  sample sc "exec.spawn_io" (run_ms -. kernel_ms);
  let want = out_stats reply in
  if not (same_stats want (List.map stat_of dl.Native.outputs)) then
    errf "in-process kernel outputs differ from the reply"
  else if not (same_stats want (List.map stat_of sub.Native.outputs)) then
    errf "in-process subprocess outputs differ from the reply"
  else Ok ()

let reply_samples sc reply ~wall_ms ~server_ms =
  sample sc "service.overhead" (wall_ms -. server_ms);
  sample sc "service.reply_bytes" (float_of_int (String.length (J.to_string reply)));
  Option.iter (sample sc "fusion.kernels_in") (J.mem_num "kernels_in" reply);
  Option.iter (sample sc "fusion.kernels_out") (J.mem_num "kernels_out" reply)

(* One traced request: the round trip and the replay of [check]ed reply
   nest under one parent span.  Returns the outcome and the round trip's
   wall time. *)
let traced c ~tid ~op rpc_f ~check replay_f =
  request c ~tid ~op (fun sc ->
      let res, ms = timed (fun () -> span sc ~sample:false "service.rpc" rpc_f) in
      (Result.bind res (fun reply -> Result.bind (check ms reply) (fun () -> replay_f sc reply ~wall_ms:ms)), ms))

(* ---- timed-phase control ---- *)

(* Closed loop: [step i] runs operation [i]; stops after [seconds], or
   later if fewer than [min_samples] have completed (capped at 3x). *)
let closed_loop ~seconds ~min_samples ~tally step =
  let t0 = now () in
  let i = ref 0 in
  let enough () =
    let el = now () -. t0 in
    Atomic.get interrupted
    || el >= seconds *. 3.0
    || (el >= seconds && locked tally (fun () -> List.length tally.lat_ms) >= min_samples)
  in
  while not (enough ()) do
    step !i;
    incr i
  done;
  now () -. t0

(* ---- workload state ---- *)

type oneshot_rec = { o : Reqgen.oneshot; stats : out_stat list; wall_ms : float }

type stream_st = {
  sapp : string;
  sseed : int;
  id : string;
  mutable pushed : int;
  mutable mirror : (Session.t * pinned) option;
}

type fuse_rec = { case : int; source : string; partition : string list list }

type lazy_st = {
  lid : string;
  mutable last_fp : string option;
  mutable unflushed : bool;
  mutable lmirror : Lz.Lazy_pipeline.t option;
}

type state =
  | Oneshot of { gen : unit -> Reqgen.oneshot; mutable recs : oneshot_rec list; pins : (string, pinned) Hashtbl.t }
  | Stream of stream_st list
  | Plan of {
      gen : unit -> Reqgen.plan_step;
      dag : string;
      sessions : (int, lazy_st) Hashtbl.t;
      mutable fuses : fuse_rec list;
      mutable current : int option;
    }

(* ---- set-up: until every distinct pipeline has answered once ---- *)

let setup cfg srv =
  let* () = Kfused.wait_ready srv in
  match cfg.workload with
  | "oneshot" ->
    let rec warm = function
      | [] -> Ok ()
      | app :: rest ->
        let* reply = rpc srv (Reqgen.fuse_exec ~extent:cfg.sizes.oneshot_extent ~app ~seed:1 ()) in
        let* _ = check_exec reply in
        warm rest
    in
    let* () = warm Reqgen.apps in
    Ok (Oneshot { gen = Reqgen.oneshot_gen ~seed:cfg.seed; recs = []; pins = Hashtbl.create 8 })
  | "stream" ->
    let rec opens acc = function
      | [] -> Ok (Stream (List.rev acc))
      | (sapp, sseed) :: rest ->
        let* reply = rpc srv (Reqgen.stream_open cfg.sizes ~app:sapp ~seed:sseed) in
        let* e = match J.member "exec" reply with Some e -> Ok e | None -> errf "no exec" in
        if J.mem_str "mode" e <> Some "subprocess" || J.mem_bool "sandboxed" e <> Some true then
          errf "stream %s not pinned as a sandboxed subprocess plan" sapp
        else
          let* id = Option.to_result ~none:"stream_open reply has no id" (J.mem_str "id" reply) in
          opens ({ sapp; sseed; id; pushed = 0; mirror = None } :: acc) rest
    in
    opens [] (Reqgen.stream_seeds ~seed:cfg.seed)
  | "plan" ->
    let dag = Reqgen.dag_source cfg.sizes.lazy_extent in
    let* reply = rpc srv (Reqgen.plan_request ~dag ~id_of:(fun _ -> "") (Reqgen.Lazy { session = 0; op = Reqgen.Open })) in
    let* id = Option.to_result ~none:"lazy_open reply has no id" (J.mem_str "id" reply) in
    let* _ = rpc srv (P.Lazy_flush { P.id; scratch = false }) in
    let* _ = rpc srv (P.Lazy_close id) in
    Ok
      (Plan
         {
           gen = Reqgen.plan_gen ~seed:cfg.seed cfg.sizes;
           dag;
           sessions = Hashtbl.create 16;
           fuses = [];
           current = None;
         })
  | w -> errf "unknown workload %S" w

(* The traced run's own set-up replay: plan, lower, compile and pin what
   kfused built during set-up, and measure the fused-vs-unfused kernel
   speedup over the six apps (oneshot only). *)
let traced_setup cfg c st =
  let tid = 0 in
  match st with
  | Oneshot { pins; _ } ->
    let ratios =
      List.map
        (fun app ->
          request c ~tid ~op:("setup " ^ app) (fun sc ->
              let e = Option.get (Kfuse_apps.Registry.find app) in
              let ext = cfg.sizes.oneshot_extent in
              let pn = replay_build sc (e.Kfuse_apps.Registry.small ~width:ext ~height:ext) in
              Hashtbl.replace pins app pn;
              let base = F.Driver.run fusion_config F.Driver.Baseline pn.input in
              let base_dl =
                or_fail "prepare baseline"
                  (Native.prepare ~cache_dir:c.native_dir ~mode:Native.Dlopen base.F.Driver.fused)
              in
              let rng = Rng.create 0 in
              let inputs =
                List.map
                  (fun n -> (n, Image.random rng ~width:ext ~height:ext ~lo:0.0 ~hi:1.0))
                  pn.fused.Ir.Pipeline.inputs
              in
              let kernel pl = (or_fail "run" (Native.run_plan ~repeat:3 pl inputs)).Native.exec_ms in
              kernel base_dl /. kernel pn.dl))
        Reqgen.apps
    in
    Tracer.add_sample c.tr "exec.fused_speedup" (Pct.geomean ratios);
    Tracer.add_sample c.tr "exec.fused_speedup_apps" (float_of_int (List.length ratios))
  | Stream sts ->
    List.iter
      (fun s ->
        request c ~tid ~op:("setup " ^ s.sapp) (fun sc ->
            let e = Option.get (Kfuse_apps.Registry.find s.sapp) in
            let ext = cfg.sizes.stream_extent in
            let pn = replay_build sc (e.Kfuse_apps.Registry.small ~width:ext ~height:ext) in
            s.mirror <- Some (or_fail "session" (Session.create pn.fused), pn)))
      sts
  | Plan _ -> ()

(* ---- the timed phases ---- *)

let synth_inputs ~seed ~ext (p : Ir.Pipeline.t) =
  let rng = Rng.create seed in
  List.map (fun n -> (n, Image.random rng ~width:ext ~height:ext ~lo:0.0 ~hi:1.0)) p.Ir.Pipeline.inputs

let oneshot_phase cfg srv tl trace ~seconds ~min_samples gen recs_add pins =
  let ext = cfg.sizes.oneshot_extent in
  closed_loop ~seconds ~min_samples ~tally:tl (fun _ ->
      let o = gen () in
      let req = Reqgen.oneshot_request cfg.sizes o in
      let check ms reply =
        let* _ = check_exec reply in
        recs_add { o; stats = out_stats reply; wall_ms = ms };
        Ok ()
      in
      match trace with
      | None ->
        let res, ms = timed (fun () -> rpc srv req) in
        count tl ~ms (Result.bind res (check ms))
      | Some c ->
        let r, ms =
          traced c ~tid:1 ~op:"fuse_exec" (fun () -> rpc srv req)
            ~check
            (fun sc reply ~wall_ms ->
              let e = Option.get (J.member "exec" reply) in
              reply_samples sc reply ~wall_ms
                ~server_ms:(num "plan_ms" reply +. num "compile_ms" e +. num "exec_ms" e);
              let pn = Hashtbl.find pins o.Reqgen.app in
              ignore (replay_plan sc pn.input);
              let inputs =
                span sc "image.synth" (fun () -> synth_inputs ~seed:o.Reqgen.input_seed ~ext pn.fused)
              in
              replay_exec sc pn inputs reply)
        in
        count tl ~ms r)

(* Rebuild a stream's in-process window from frame [next - depth] on, so
   the replay's bindings equal kfused's for frame [next]. *)
let resync s ~ext =
  match s.mirror with
  | None -> ()
  | Some (_, pn) ->
    let sess = or_fail "session" (Session.create pn.fused) in
    for i = max 0 (s.pushed - Session.depth sess) to s.pushed - 1 do
      Session.advance sess (Frames.synthetic ~seed:s.sseed ~width:ext ~height:ext ~index:i)
    done;
    s.mirror <- Some (sess, pn)

let push_check s reply =
  let* _ = check_exec reply in
  match J.mem_num "seq" reply with
  | Some q when int_of_float q = s.pushed -> Ok ()
  | _ -> errf "stream %s: frame seq out of order" s.id

let stream_phase cfg srv tl trace ~seconds ~min_samples sts =
  let ext = cfg.sizes.stream_extent in
  let t0 = now () in
  let running () =
    let el = now () -. t0 in
    (not (Atomic.get interrupted))
    && (el < seconds
       || (el < seconds *. 3.0 && locked tl (fun () -> List.length tl.lat_ms) < min_samples))
  in
  let worker tid s =
    (match trace with Some _ -> resync s ~ext | None -> ());
    let r =
      Client.with_connection ~socket:srv.Kfused.socket ~timeout_ms:60_000.0 (fun conn ->
          let send req = match Client.request conn req with Ok v -> Ok v | Error d -> Error (Diag.to_string d) in
          while running () do
            let req = Reqgen.stream_push s.id in
            (match (trace, s.mirror) with
            | Some c, Some (sess, pn) ->
              let r, ms =
                traced c ~tid ~op:"stream_push" (fun () -> send req)
                  ~check:(fun _ reply -> push_check s reply)
                  (fun sc reply ~wall_ms ->
                    let e = Option.get (J.member "exec" reply) in
                    reply_samples sc reply ~wall_ms ~server_ms:(num "exec_ms" e);
                    let frame =
                      span sc "image.synth" (fun () ->
                          Frames.synthetic ~seed:s.sseed ~width:ext ~height:ext ~index:s.pushed)
                    in
                    let window f = timed (fun () -> span sc ~sample:false "stream.window" f) in
                    let bindings, w1 = window (fun () -> Session.bindings sess frame) in
                    let r = replay_exec sc ~params:(Session.params sess) pn bindings reply in
                    let (), w2 = window (fun () -> Session.advance sess frame) in
                    sample sc "stream.window" (w1 +. w2);
                    r)
              in
              count tl ~ms r
            | _ ->
              let res, ms = timed (fun () -> send req) in
              count tl ~ms (Result.bind res (push_check s)));
            s.pushed <- s.pushed + 1
          done;
          Ok ())
    in
    match r with Ok () -> () | Error d -> note_fail tl ("stream connection: " ^ Diag.to_string d)
  in
  let threads = List.mapi (fun i s -> Thread.create (worker (i + 1)) s) sts in
  List.iter Thread.join threads;
  now () -. t0

let block_names (p : Ir.Pipeline.t) b =
  List.map (fun i -> (Ir.Pipeline.kernel p i).Ir.Kernel.name) (Iset.elements b)

let reply_partition reply =
  List.map
    (fun b -> List.filter_map J.str (Option.value ~default:[] (J.arr b)))
    (Option.value ~default:[] (Option.bind (J.member "partition" reply) J.arr))

let plan_phase srv tl trace ~seconds ~min_samples st =
  match st with
  | Plan pl -> (
    let r =
      Client.with_connection ~socket:srv.Kfused.socket ~timeout_ms:60_000.0 (fun conn ->
          let send req = match Client.request conn req with Ok v -> Ok v | Error d -> Error (Diag.to_string d) in
          let id_of k = match Hashtbl.find_opt pl.sessions k with Some s -> s.lid | None -> "lz-unknown" in
          let el =
            closed_loop ~seconds ~min_samples ~tally:tl (fun _ ->
                let step = pl.gen () in
                let req = Reqgen.plan_request ~dag:pl.dag ~id_of step in
                let go check replay =
                  match trace with
                  | None ->
                    let res, ms = timed (fun () -> send req) in
                    count tl ~ms (Result.bind res check)
                  | Some c ->
                    let op = Option.value ~default:"?" (J.mem_str "op" (P.request_to_json req)) in
                    let r, ms =
                      traced c ~tid:1 ~op (fun () -> send req) ~check:(fun _ reply -> check reply) replay
                    in
                    count tl ~ms r
                in
                match step with
                | Reqgen.Fuse { case; source; _ } ->
                  go
                    (fun reply ->
                      if J.mem_bool "degraded" reply = Some true then errf "degraded plan"
                      else begin
                        pl.fuses <- { case; source; partition = reply_partition reply } :: pl.fuses;
                        Ok ()
                      end)
                    (fun sc reply ~wall_ms ->
                      reply_samples sc reply ~wall_ms ~server_ms:(num "plan_ms" reply);
                      let p =
                        span sc "dsl.parse" (fun () ->
                            or_fail "parse" (Kfuse_dsl.Elaborate.parse_pipeline_diag source))
                      in
                      ignore (replay_plan sc p);
                      Ok ())
                | Reqgen.Lazy { session; op } -> (
                  let lz () = Hashtbl.find pl.sessions session in
                  match op with
                  | Reqgen.Open ->
                    go
                      (fun reply ->
                        match J.mem_str "id" reply with
                        | None -> errf "lazy_open reply has no id"
                        | Some lid ->
                          Hashtbl.replace pl.sessions session
                            { lid; last_fp = None; unflushed = true; lmirror = None };
                          pl.current <- Some session;
                          Ok ())
                      (fun sc reply ~wall_ms ->
                        reply_samples sc reply ~wall_ms ~server_ms:0.0;
                        let p = or_fail "parse" (Kfuse_dsl.Elaborate.parse_pipeline_diag pl.dag) in
                        (lz ()).lmirror <- Some (Lz.Lazy_pipeline.of_pipeline fusion_config p);
                        Ok ())
                  | Reqgen.Edit command ->
                    go
                      (fun _ ->
                        (lz ()).unflushed <- true;
                        Ok ())
                      (fun sc reply ~wall_ms ->
                        reply_samples sc reply ~wall_ms ~server_ms:0.0;
                        match (lz ()).lmirror with
                        | None -> Ok ()
                        | Some b ->
                          span sc "lazy.edit" (fun () ->
                              match Result.bind (Lz.Command.parse b command) (Lz.Command.apply b) with
                              | Ok _ -> Ok ()
                              | Error d -> Error ("replayed edit rejected: " ^ Diag.to_string d)))
                  | Reqgen.Flush ->
                    go
                      (fun reply ->
                        let s = lz () in
                        s.last_fp <- J.mem_str "fingerprint" reply;
                        s.unflushed <- false;
                        Ok ())
                      (fun sc reply ~wall_ms ->
                        let r = Option.value ~default:(J.Obj []) (J.member "replan" reply) in
                        reply_samples sc reply ~wall_ms ~server_ms:(num "replan_ms" r);
                        sample sc "lazy.reused" (num "blocks_reused" r);
                        sample sc "lazy.replanned" (num "blocks_replanned" r);
                        match (lz ()).lmirror with
                        | None -> Ok ()
                        | Some b ->
                          let plan = span sc "lazy.flush" (fun () -> or_fail "flush" (Lz.Lazy_pipeline.flush b)) in
                          if Some plan.Lz.Replan.fingerprint <> J.mem_str "fingerprint" reply then
                            errf "replayed flush fingerprint differs from kfused's"
                          else Ok ())
                  | Reqgen.Scratch_flush ->
                    go
                      (fun reply ->
                        let s = lz () in
                        if s.last_fp <> None && J.mem_str "fingerprint" reply = s.last_fp then Ok ()
                        else errf "lazy %s: scratch plan differs from the incremental one" s.lid)
                      (fun sc reply ~wall_ms ->
                        reply_samples sc reply ~wall_ms ~server_ms:0.0;
                        Ok ())
                  | Reqgen.Close ->
                    go
                      (fun _ ->
                        Hashtbl.remove pl.sessions session;
                        pl.current <- None;
                        Ok ())
                      (fun sc reply ~wall_ms ->
                        reply_samples sc reply ~wall_ms ~server_ms:0.0;
                        Ok ())))
          in
          Ok el)
    in
    match r with
    | Ok el -> el
    | Error d ->
      note_fail tl ("plan connection: " ^ Diag.to_string d);
      seconds)
  | _ -> 0.0

(* ---- answer checks after the timed phase ---- *)

let verify_oneshot cfg srv tl recs =
  let arr = Array.of_list recs in
  let n = Array.length arr in
  if n = 0 then note_fail tl "oneshot: no timed replies to verify"
  else begin
    let rng = Rng.create (cfg.seed + 17) in
    for _ = 1 to min verify_sample n do
      let r = arr.(Rng.int rng n) in
      let req =
        Reqgen.fuse_exec ~extent:cfg.sizes.oneshot_extent ~verify:true ~app:r.o.Reqgen.app
          ~seed:r.o.Reqgen.input_seed ()
      in
      count tl
        (let* reply = rpc srv req in
         let* _ = check_exec reply in
         let* () = check_exact reply in
         if same_stats r.stats (out_stats reply) then Ok ()
         else errf "oneshot %s seed %d: verify reply outputs differ from the timed reply" r.o.Reqgen.app r.o.Reqgen.input_seed)
    done
  end

let verify_stream srv tl sts =
  List.iter
    (fun s ->
      for _ = 1 to 2 do
        count tl
          (let* reply = rpc srv (Reqgen.stream_push ~verify:true s.id) in
           let* () = push_check s reply in
           check_exact reply);
        s.pushed <- s.pushed + 1
      done;
      count tl (Result.map ignore (rpc srv (P.Stream_close s.id))))
    sts

(* Every fuse reply's partition must pass the legality audit and equal
   the in-process plan of the same source. *)
let verify_plan srv tl st =
  match st with
  | Plan pl ->
    let memo = Hashtbl.create 64 in
    List.iter
      (fun f ->
        let r =
          match Hashtbl.find_opt memo f.case with
          | Some r -> r
          | None ->
            let p = or_fail "parse" (Kfuse_dsl.Elaborate.parse_pipeline_diag f.source) in
            let r = F.Driver.run fusion_config F.Driver.Mincut p in
            Hashtbl.replace memo f.case r;
            r
        in
        let input = r.F.Driver.input in
        let index = Hashtbl.create 64 in
        List.iteri (fun i k -> Hashtbl.replace index k.Ir.Kernel.name i) (Array.to_list input.Ir.Pipeline.kernels);
        let check =
          let want = List.map (block_names input) r.F.Driver.partition in
          if want <> f.partition then errf "fuzz case %d: kfused's partition differs from Driver.run" f.case
          else
            match
              List.map (fun b -> Iset.of_list (List.map (Hashtbl.find index) b)) f.partition
            with
            | exception Not_found -> errf "fuzz case %d: partition names an unknown kernel" f.case
            | part -> (
              match F.Legality.check_partition fusion_config input part with
              | Ok () -> Ok ()
              | Error d -> errf "fuzz case %d: %s" f.case (Diag.to_string d))
        in
        (* the audit re-checks an answer already counted: only failures add *)
        match check with Ok () -> () | Error m -> note_fail tl m)
      pl.fuses;
    (* finish the open lazy session: flush pending edits, scratch-check, close *)
    Option.iter
      (fun k ->
        let s = Hashtbl.find pl.sessions k in
        if s.unflushed then
          count tl
            (let* reply = rpc srv (P.Lazy_flush { P.id = s.lid; scratch = false }) in
             s.last_fp <- J.mem_str "fingerprint" reply;
             Ok ());
        count tl
          (let* reply = rpc srv (P.Lazy_flush { P.id = s.lid; scratch = true }) in
           if s.last_fp <> None && J.mem_str "fingerprint" reply = s.last_fp then Ok ()
           else errf "lazy %s: scratch plan differs from the incremental one" s.lid);
        count tl (Result.map ignore (rpc srv (P.Lazy_close s.lid))))
      pl.current
  | _ -> ()

(* ---- one run ---- *)

let host_shape cfg =
  let tc = Toolchain.find () in
  [
    ("workload", J.Str cfg.workload);
    ("seed", J.Num (float_of_int cfg.seed));
    ("seconds", J.Num cfg.seconds);
    ("trace", J.Bool cfg.trace);
    ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
    ("omp_num_threads", J.Str (Option.value ~default:"unset" (Sys.getenv_opt "OMP_NUM_THREADS")));
    ("toolchain", J.Str (match tc with Ok t -> Toolchain.id t | Error _ -> "none"));
    ("openmp", J.Bool (match tc with Ok t -> t.Toolchain.openmp | Error _ -> false));
    ("ocaml", J.Str Sys.ocaml_version);
    ("kfused_flags", J.Arr (List.map (fun s -> J.Str s) (Kfused.serve_args ~root:"<run-root>")));
  ]

type measured = {
  setups_s : float list;
  lat : float list;  (** the e2e latency samples (untraced) *)
  elapsed_s : float;
  traced_lat : float list;
  rss_mb : float option;
  errors_delta : float;
  hits_delta : float;
  misses_delta : float;
  tctx : tctx option;
  notes : string list;  (** host steal; per-app latency medians (oneshot) *)
}

let sum_errors stats =
  match J.member "requests" stats with
  | Some (J.Obj ops) -> List.fold_left (fun acc (_, v) -> acc +. num "errors" v) 0.0 ops
  | _ -> 0.0

let cache_counts stats =
  match J.member "cache" stats with
  | Some c -> (num "hits" c +. num "disk_hits" c, num "misses" c +. num "iso_misses" c)
  | None -> (0.0, 0.0)

(* Cumulative (steal, total) jiffies of the host's CPUs: a shared VM's
   neighbours show up as steal, which explains slow runs. *)
let cpu_steal () =
  match Kfused.read_file "/proc/stat" with
  | None -> None
  | Some s -> (
    match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
    | "cpu" :: rest -> (
      match List.filter_map int_of_string_opt rest with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ as v ->
        Some (steal, List.fold_left ( + ) 0 v)
      | _ -> None)
    | _ -> None)

let phase cfg srv st trace tl ~seconds ~min_samples =
  match st with
  | Oneshot o ->
    oneshot_phase cfg srv tl trace ~seconds ~min_samples o.gen (fun r -> o.recs <- r :: o.recs) o.pins
  | Stream sts -> stream_phase cfg srv tl trace ~seconds ~min_samples sts
  | Plan _ -> plan_phase srv tl trace ~seconds ~min_samples st

let main_phase cfg srv tl st ~setups_s =
  let stats () = Result.value ~default:(J.Obj []) (rpc srv P.Stats) in
  let s0 = stats () in
  let steal0 = cpu_steal () in
  let tctx, lat, elapsed_s, traced_lat =
    if not cfg.trace then begin
      let el = phase cfg srv st None tl ~seconds:cfg.seconds ~min_samples in
      (None, tl.lat_ms, el, [])
    end
    else begin
      (* Half untraced, half traced, on one server and one continuing
         request sequence: the ratio of their p50s is the tracing
         overhead. *)
      let c =
        {
          tr = Tracer.create ();
          mirror = Plan_cache.create ~capacity:4096 ();
          native_dir = Filename.concat srv.Kfused.root "replay-native";
          next_req = Atomic.make 1;
        }
      in
      traced_setup cfg c st;
      let half = cfg.seconds /. 2.0 in
      let el = phase cfg srv st None tl ~seconds:half ~min_samples:0 in
      let untraced = tl.lat_ms in
      tl.lat_ms <- [];
      ignore (phase cfg srv st (Some c) tl ~seconds:half ~min_samples:0);
      (Some c, untraced, el, tl.lat_ms)
    end
  in
  let steal =
    match (steal0, cpu_steal ()) with
    | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
      [ Printf.sprintf "host CPU steal during the timed phase: %.1f %%" (100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)) ]
    | _ -> []
  in
  (* The peak is read before the answer checks: their reference
     interpreter runs are not part of the workload. *)
  let rss_mb = Kfused.rss_peak_mb srv in
  (match st with
  | Oneshot o -> verify_oneshot cfg srv tl o.recs
  | Stream sts -> verify_stream srv tl sts
  | Plan _ -> verify_plan srv tl st);
  let s1 = stats () in
  let h0, m0 = cache_counts s0 and h1, m1 = cache_counts s1 in
  {
    setups_s;
    lat;
    elapsed_s;
    traced_lat;
    rss_mb;
    errors_delta = sum_errors s1 -. sum_errors s0;
    hits_delta = h1 -. h0;
    misses_delta = m1 -. m0;
    tctx;
    notes =
      steal
      @
      match st with
      | Oneshot o ->
        List.map
          (fun app ->
            let l = List.filter_map (fun r -> if r.o.Reqgen.app = app then Some r.wall_ms else None) o.recs in
            Printf.sprintf "%-10s median %.1f ms over %d requests" app (Pct.median l) (List.length l))
          Reqgen.apps
      | _ -> [];
  }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (metric * float) list;
  problems : string list;
  host : (string * J.t) list;
  lines : string list;  (** the human-readable report *)
  samples_ms : float list;  (** end-to-end latencies in completion order *)
}

let fmt_value v = Printf.sprintf "%.6g" v

(* End-to-end metrics of an untraced run. *)
let e2e_metrics (tl : tally) ms problems =
  let n = List.length ms.lat in
  let p90 =
    match Pct.percentile ~p:90.0 ms.lat with
    | Ok v -> v
    | Error e ->
      problems := ("latency_p90_ms " ^ e) :: !problems;
      List.fold_left Float.max 0.0 ms.lat
  in
  let attempted = max 1 tl.attempted in
  let values =
    [
      ("setup_s", Pct.median ms.setups_s);
      ("latency_p50_ms", Pct.median ms.lat);
      ("latency_p90_ms", p90);
      ("ops_per_s", float_of_int n /. ms.elapsed_s);
      ("success_ratio", float_of_int (attempted - tl.failed) /. float_of_int attempted);
      ("server_rss_peak_mb", Option.value ~default:Float.nan ms.rss_mb);
    ]
  in
  let notes =
    [
      Printf.sprintf "setup_s is the median of %d fresh set-ups: %s" (List.length ms.setups_s)
        (String.concat " " (List.map (Printf.sprintf "%.3f") ms.setups_s));
      Printf.sprintf "latency over %d timed operations in %.1f s (p90 leaves %d beyond it)" n
        ms.elapsed_s
        (n - (Pct.rank ~p:90.0 n + 1));
      Printf.sprintf "fail_ratio = %d / %d = %g" tl.failed attempted
        (float_of_int tl.failed /. float_of_int attempted);
    ]
    @ ms.notes
  in
  (List.map (fun mt -> (mt, List.assoc mt.name values)) end_to_end, notes)

(* Per-layer metrics of a traced run. *)
let layer_metrics c ms =
  let tr = c.tr in
  let sum l = List.fold_left ( +. ) 0.0 (Tracer.samples tr l) in
  let med l = match Tracer.samples tr l with [] -> 0.0 | s -> Pct.median s in
  let timing =
    List.concat_map
      (fun l ->
        let s = Tracer.samples tr l in
        [ (l ^ "_ms", if s = [] then 0.0 else Pct.median s); (l ^ "_n", float_of_int (List.length s)) ])
      timed_layers
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let reused = sum "lazy.reused" and replanned = sum "lazy.replanned" in
  let p50u = Pct.median ms.lat and p50t = Pct.median ms.traced_lat in
  let values =
    timing
    @ [
        ("service.reply_bytes", med "service.reply_bytes");
        ("service.error_replies", ms.errors_delta);
        ("cache.hit_ratio", ratio ms.hits_delta (ms.hits_delta +. ms.misses_delta));
        ("cache.lookups", ms.hits_delta +. ms.misses_delta);
        ("fusion.kernels_in", med "fusion.kernels_in");
        ("fusion.kernels_out", med "fusion.kernels_out");
        ("lazy.blocks_reused_ratio", ratio reused (reused +. replanned));
        ("lazy.blocks", reused +. replanned);
        ("codegen.c_bytes", med "codegen.c_bytes");
        ("exec.compiles", sum "exec.compiles");
        ("exec.fused_speedup", med "exec.fused_speedup");
        ("exec.fused_speedup_apps", sum "exec.fused_speedup_apps");
        ("trace.overhead_ratio", ratio p50t p50u);
        ("trace.untraced_p50_ms", p50u);
        ("trace.traced_p50_ms", p50t);
        ("trace.spans", float_of_int (Tracer.span_count tr));
      ]
  in
  let notes =
    List.map
      (fun l ->
        let s = Tracer.samples tr l in
        let p90 =
          match Pct.percentile ~p:90.0 s with
          | Ok v -> Printf.sprintf "p90 %s ms" (fmt_value v)
          | Error e -> e
        in
        Printf.sprintf "%-18s median %s ms, %s, n=%d" l
          (if s = [] then "-" else fmt_value (Pct.median s))
          p90 (List.length s))
      timed_layers
    @ [
        Printf.sprintf "tracing overhead: traced p50 %s ms / untraced p50 %s ms = %s" (fmt_value p50t)
          (fmt_value p50u) (fmt_value (ratio p50t p50u));
        Printf.sprintf "cache.hit_ratio base: %g lookups; lazy.blocks_reused_ratio base: %g blocks"
          (ms.hits_delta +. ms.misses_delta) (reused +. replanned);
      ]
    @ ms.notes
  in
  (List.map (fun mt -> (mt, List.assoc mt.name values)) per_layer, notes)

let run cfg =
  let tl = tally () in
  let problems = ref [] in
  let setups_s = ref [] in
  let final = ref None in
  for i = 1 to setups do
    if Atomic.get interrupted then failwith "interrupted";
    let r, probs =
      Kfused.with_server ~kfusec:cfg.kfusec ~base:cfg.base (fun srv ->
          match setup cfg srv with
          | Error e -> Error e
          | Ok st ->
            setups_s := (now () -. srv.Kfused.spawned_at) :: !setups_s;
            if i < setups then Ok None
            else Ok (Some (main_phase cfg srv tl st ~setups_s:(List.rev !setups_s))))
    in
    problems := !problems @ probs;
    match r with
    | Error e -> failwith ("set-up failed: " ^ e)
    | Ok (Some ms) -> final := Some ms
    | Ok None -> ()
  done;
  if Atomic.get interrupted then failwith "interrupted";
  let ms = Option.get !final in
  let host = host_shape cfg in
  let metrics, notes =
    match ms.tctx with
    | None -> e2e_metrics tl ms problems
    | Some c ->
      let path =
        Filename.concat cfg.out_dir (Printf.sprintf "trace-%s-seed%d.json" cfg.workload cfg.seed)
      in
      Tracer.write c.tr ~path ~meta:host;
      let metrics, notes = layer_metrics c ms in
      (metrics, notes @ [ "trace written to " ^ path ])
  in
  let problems = !problems @ List.rev tl.first_errors in
  let correct = tl.failed = 0 && problems = [] in
  {
    correct;
    attempted = tl.attempted;
    failed = tl.failed;
    metrics;
    problems;
    host;
    lines = notes;
    samples_ms = List.rev ms.lat;
  }

let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (mt, v) -> (mt.name, J.Obj [ ("value", J.Num v); ("unit", J.Str mt.unit_) ]))
             r.metrics) );
    ]

let report r =
  let host =
    String.concat " "
      (List.map (fun (k, v) -> k ^ "=" ^ match v with J.Str s -> s | v -> J.to_string v) r.host)
  in
  (("host: " ^ host)
  :: List.map (fun (mt, v) -> Printf.sprintf "%-26s %14s %s" mt.name (fmt_value v) mt.unit_) r.metrics)
  @ r.lines
  @ List.map (fun p -> "PROBLEM: " ^ p) r.problems
  @ [ Printf.sprintf "correct=%b attempted=%d failed=%d" r.correct r.attempted r.failed ]
