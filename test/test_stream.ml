(* The streaming subsystem, bottom to top.

   Unit layers first — temporal input analysis, the session's sliding
   window (cold-start clamping, ring eviction), protocol round-trips —
   then the live daemon: the open/push/close lifecycle, idle expiry,
   capacity and backpressure sheds with the client's retry split,
   SIGTERM drain with streams still open, a mid-stream crash that trips
   the breaker and falls back to the interpreter without perturbing the
   pixel history, and the exactly-one-compile-per-stream contract. *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx
module Protocol = Svc.Protocol
module Cache = Kfuse_cache
module Faults = Kfuse_util.Faults
module Diag = Kfuse_util.Diag
module Ir = Kfuse_ir
module Img = Kfuse_image
module F = Kfuse_fusion
module Temporal = Kfuse_ir.Temporal
module Session = Kfuse_stream.Session
module Frames = Kfuse_stream.Frames
module Native = Kfuse_exec.Native

let code_of (d : Diag.t) = Diag.code_id d.Diag.code

(* ---- temporal analysis ---- *)

let test_temporal_analysis () =
  let lag n = Temporal.lag_of_name n in
  Alcotest.(check (option int)) "prev is lag 1" (Some 1) (lag "prev");
  Alcotest.(check (option int)) "prev2 is lag 2" (Some 2) (lag "prev2");
  Alcotest.(check (option int)) "prev9 is lag 9" (Some 9) (lag "prev9");
  Alcotest.(check (option int)) "frame is current" None (lag "frame");
  Alcotest.(check (option int)) "previous is not temporal" None (lag "previous");
  let p =
    (Option.get (Kfuse_apps.Registry.find "motion")).Kfuse_apps.Registry.small
      ~width:8 ~height:6
  in
  let a = Temporal.analyze p in
  Alcotest.(check (list string)) "motion's current input" [ "frame" ] a.Temporal.current;
  Alcotest.(check (list (pair string int)))
    "motion's temporal input" [ ("prev", 1) ] a.Temporal.temporal;
  Alcotest.(check int) "motion's depth" 1 a.Temporal.depth;
  Alcotest.(check bool) "motion is temporal" true (Temporal.is_temporal a);
  (match Temporal.stream_input a with
  | Ok n -> Alcotest.(check string) "stream input" "frame" n
  | Error d -> Alcotest.failf "stream_input: %s" (Diag.to_string d));
  (* Two current inputs: binding a pushed frame would be ambiguous. *)
  let two =
    Ir.Pipeline.create ~name:"two" ~width:4 ~height:4 ~inputs:[ "a"; "b" ]
      [
        Kfuse_ir.Kernel.map ~name:"k" ~inputs:[ "a"; "b" ]
          Kfuse_ir.Expr.(input "a" + input "b");
      ]
  in
  match Temporal.stream_input (Temporal.analyze two) with
  | Ok n -> Alcotest.failf "ambiguous pipeline streamed via %S" n
  | Error _ -> ()

(* ---- session window semantics ---- *)

(* A lag-2 identity pipeline: the output IS the frame two steps back,
   so window bookkeeping is directly observable in the pixels. *)
let lag2_pipeline () =
  Ir.Pipeline.create ~name:"lag2" ~width:4 ~height:3 ~inputs:[ "frame"; "prev2" ]
    [ Kfuse_ir.Kernel.map ~name:"echo" ~inputs:[ "prev2" ] (Kfuse_ir.Expr.input "prev2") ]

let frame_at i = Frames.synthetic ~seed:9 ~width:4 ~height:3 ~index:i

let check_image what want got =
  Alcotest.(check (float 0.0)) what 0.0 (Img.Image.max_abs_diff want got)

let test_session_window () =
  let session =
    match Session.create (lag2_pipeline ()) with
    | Ok s -> s
    | Error d -> Alcotest.failf "create: %s" (Diag.to_string d)
  in
  Alcotest.(check int) "depth is the max lag" 2 (Session.depth session);
  Alcotest.(check string) "stream input" "frame" (Session.stream_input session);
  Alcotest.(check int) "no frames yet" 0 (Session.frames session);
  let out s i =
    match Session.push s (frame_at i) with
    | [ (_, img) ] -> img
    | outs -> Alcotest.failf "expected one output, got %d" (List.length outs)
  in
  (* Cold start: every lag clamps toward the oldest frame available —
     the current frame itself on frame 0. *)
  check_image "frame 0: prev2 clamps to the current frame" (frame_at 0) (out session 0);
  check_image "frame 1: prev2 clamps to frame 0" (frame_at 0) (out session 1);
  (* Warm: the true two-back frame... *)
  check_image "frame 2: true lag" (frame_at 0) (out session 2);
  check_image "frame 3: true lag" (frame_at 1) (out session 3);
  (* ... and the ring must have evicted beyond the depth, which the
     lagged output proves frame by frame. *)
  check_image "frame 4: ring advanced" (frame_at 2) (out session 4);
  Alcotest.(check int) "five frames pushed" 5 (Session.frames session)

let test_session_matches_manual_eval () =
  (* The session interpreter is nothing more than Eval over explicitly
     lagged bindings; motion's delta/threshold must agree bitwise. *)
  let p =
    (Option.get (Kfuse_apps.Registry.find "motion")).Kfuse_apps.Registry.small
      ~width:8 ~height:6
  in
  let session =
    match Session.create p with
    | Ok s -> s
    | Error d -> Alcotest.failf "create: %s" (Diag.to_string d)
  in
  let frame i = Frames.synthetic ~seed:3 ~width:8 ~height:6 ~index:i in
  for i = 0 to 3 do
    let cur = frame i in
    let prev = frame (max 0 (i - 1)) in
    let manual =
      Ir.Eval.run_outputs ~params:(Session.params session) p
        (Ir.Eval.env_of_list [ ("frame", cur); ("prev", prev) ])
    in
    let got = Session.push session cur in
    List.iter2
      (fun (wn, want) (gn, got) ->
        Alcotest.(check string) "output name" wn gn;
        check_image (Printf.sprintf "frame %d output %s" i wn) want got)
      manual got
  done

(* ---- protocol round-trips ---- *)

let fuse_req ?budget_ms ?(strict = false) app =
  {
    Protocol.app = Some app;
    source = None;
    strategy = Kfuse_fusion.Driver.Mincut;
    c_mshared = None;
    gamma = None;
    tg = None;
    optimize = false;
    inline = false;
    strict;
    budget_ms;
    no_cache = false;
  }

let open_req ?(seed = 42) ?width ?height app =
  { Protocol.fuse = fuse_req app; exec_mode = None; width; height; seed }

let push_req ?(verify = false) ?(return_pixels = false) id =
  { Protocol.id; verify; return_pixels }

let test_protocol_roundtrip () =
  let roundtrip req =
    let j = Protocol.request_to_json req in
    match Protocol.request_of_json j with
    | Error d -> Alcotest.failf "decode failed: %s" (Diag.to_string d)
    | Ok req' ->
      Alcotest.(check string)
        "encode/decode/encode is the identity"
        (Jsonx.to_string j)
        (Jsonx.to_string (Protocol.request_to_json req'))
  in
  roundtrip (Protocol.Stream_open (open_req ~seed:7 ~width:32 ~height:24 "motion"));
  roundtrip (Protocol.Stream_open (open_req "tharris"));
  roundtrip (Protocol.Stream_push (push_req ~verify:true ~return_pixels:true "st-3"));
  roundtrip (Protocol.Stream_push (push_req "st-0"));
  roundtrip (Protocol.Stream_close "st-12")

(* ---- live daemon ---- *)

let temp_socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "kfused-stream-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let with_server ?cache_dir ?exec_sandbox ?max_streams ?stream_queue ?stream_idle_ms
    ?breaker_threshold f =
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create ?dir:cache_dir () in
  let crash_dir = temp_dir "kfuse-stream-crash" in
  Kfuse_util.Pool.with_pool 2 (fun pool ->
      match
        Svc.Server.start ~socket ~cache ~pool ~crash_dir ?exec_sandbox ?breaker_threshold
          ?max_streams ?stream_queue ?stream_idle_ms ()
      with
      | Error d -> Alcotest.failf "server start failed: %s" (Diag.to_string d)
      | Ok server ->
        Fun.protect ~finally:(fun () -> Svc.Server.stop server) (fun () -> f socket server))

let expect_ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "request failed: %s" (Diag.to_string d)

let field name v =
  match Jsonx.member name v with
  | Some f -> f
  | None -> Alcotest.failf "response lacks %S: %s" name (Jsonx.to_string v)

let num = function
  | Jsonx.Num n -> n
  | v -> Alcotest.failf "expected a number, got %s" (Jsonx.to_string v)

let str = function
  | Jsonx.Str s -> s
  | v -> Alcotest.failf "expected a string, got %s" (Jsonx.to_string v)

let counter server name = Svc.Metrics.counter (Svc.Server.metrics server) name
let gauge server name = Svc.Metrics.gauge (Svc.Server.metrics server) name

let require_toolchain () =
  match Kfuse_exec.Toolchain.find () with Error _ -> Alcotest.skip () | Ok _ -> ()

let stream_id reply = str (field "id" reply)

(* The reference a stream must match: the session interpreter over the
   same Mincut-fused pipeline, fed the same synthetic frame sequence. *)
let reference_session ~app ~width ~height =
  let entry = Option.get (Kfuse_apps.Registry.find app) in
  let p = entry.Kfuse_apps.Registry.small ~width ~height in
  let fused = (F.Driver.run F.Config.default F.Driver.Mincut p).F.Driver.fused in
  match Session.create fused with
  | Ok s -> s
  | Error d -> Alcotest.failf "reference session: %s" (Diag.to_string d)

let check_pixels_match reference reply =
  let outputs =
    match field "outputs" reply with
    | Jsonx.Arr outs -> outs
    | v -> Alcotest.failf "outputs is not an array: %s" (Jsonx.to_string v)
  in
  Alcotest.(check int) "output count" (List.length reference) (List.length outputs);
  List.iter2
    (fun (name, img) out ->
      Alcotest.(check string) "output name" name (str (field "name" out));
      match field "pixels" out with
      | Jsonx.Arr rows ->
        List.iteri
          (fun y row ->
            match row with
            | Jsonx.Arr cells ->
              List.iteri
                (fun x cell ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s[%d,%d] bit-exact" name x y)
                    (Img.Image.get img x y) (num cell))
                cells
            | v -> Alcotest.failf "row is not an array: %s" (Jsonx.to_string v))
          rows
      | v -> Alcotest.failf "pixels missing: %s" (Jsonx.to_string v))
    reference outputs

let test_stream_lifecycle () =
  with_server @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion")) in
      let id = stream_id opened in
      Alcotest.(check (float 0.0)) "motion streams at depth 1" 1.0 (num (field "depth" opened));
      Alcotest.(check (float 0.0)) "extent echoed" 16.0 (num (field "width" opened));
      Alcotest.(check int) "gauge sees the stream" 1 (gauge server "streams_active");
      for i = 0 to 2 do
        let reply = expect_ok (Svc.Client.stream_push c (push_req id)) in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "push %d seq" i)
          (float_of_int i) (num (field "seq" reply));
        Alcotest.(check (float 0.0))
          (Printf.sprintf "push %d frame count" i)
          (float_of_int (i + 1))
          (num (field "frames" reply))
      done;
      (* The stats view agrees with the metrics registry. *)
      let stats = expect_ok (Svc.Client.stats c) in
      let streams = field "streams" stats in
      Alcotest.(check (float 0.0)) "stats: one active" 1.0 (num (field "active" streams));
      Alcotest.(check (float 0.0)) "stats: frames pushed" 3.0
        (num (field "frames_pushed" streams));
      let closed = expect_ok (Svc.Client.stream_close c id) in
      Alcotest.(check (float 0.0)) "close reports the frame total" 3.0
        (num (field "frames" closed));
      Ok ())
  |> expect_ok;
  Alcotest.(check int) "opened counted" 1 (counter server "streams_opened");
  Alcotest.(check int) "closed counted" 1 (counter server "streams_closed");
  Alcotest.(check int) "pushes counted" 3 (counter server "frames_pushed");
  Alcotest.(check int) "gauge back to zero" 0 (gauge server "streams_active")

let test_stream_unknown_id () =
  with_server @@ fun socket _server ->
  Svc.Client.with_connection ~socket (fun c ->
      (match Svc.Client.stream_push c (push_req "st-999") with
      | Ok _ -> Alcotest.fail "push to an unopened stream must fail"
      | Error d -> Alcotest.(check string) "push typed KF0806" "KF0806" (code_of d));
      (match Svc.Client.stream_close c "st-999" with
      | Ok _ -> Alcotest.fail "close of an unopened stream must fail"
      | Error d -> Alcotest.(check string) "close typed KF0806" "KF0806" (code_of d));
      Ok ())
  |> expect_ok

(* Streams and lazy sessions share one session table: the capacity
   shed and idle expiry below run once per kind. *)
type kind = {
  family : string;  (* metric family: <family>_shed, <family>_active, ... *)
  open_ : Svc.Client.t -> (Jsonx.t, Diag.t) result;
  use : Svc.Client.t -> string -> (Jsonx.t, Diag.t) result;
  close : Svc.Client.t -> string -> (Jsonx.t, Diag.t) result;
}

let stream_kind =
  {
    family = "streams";
    open_ = (fun c -> Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion"));
    use = (fun c id -> Svc.Client.stream_push c (push_req id));
    close = Svc.Client.stream_close;
  }

let lazy_kind =
  {
    family = "lazy";
    open_ =
      (fun c ->
        Svc.Client.request c
          (Protocol.Lazy_open
             {
               Protocol.app = None;
               source = None;
               width = Some 16;
               height = Some 12;
               channels = None;
               inputs = [ "in" ];
               c_mshared = None;
               gamma = None;
               tg = None;
             }));
    use =
      (fun c id -> Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false }));
    close = (fun c id -> Svc.Client.request c (Protocol.Lazy_close id));
  }

let test_capacity_shed kind () =
  with_server ~max_streams:1 @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let first = expect_ok (kind.open_ c) in
      (match kind.open_ c with
      | Ok _ -> Alcotest.fail "second open must be shed at --max-streams 1"
      | Error d -> Alcotest.(check string) "shed typed KF0803" "KF0803" (code_of d));
      Alcotest.(check int) "shed counted" 1 (counter server (kind.family ^ "_shed"));
      (* Closing frees the slot: the next open is admitted. *)
      ignore (expect_ok (kind.close c (stream_id first)));
      let third = expect_ok (kind.open_ c) in
      ignore (expect_ok (kind.close c (stream_id third)));
      Ok ())
  |> expect_ok;
  Alcotest.(check int) "gauge back to zero" 0 (gauge server (kind.family ^ "_active"))

let test_idle_expiry kind () =
  with_server ~stream_idle_ms:40.0 @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let id = stream_id (expect_ok (kind.open_ c)) in
      ignore (expect_ok (kind.use c id));
      Thread.delay 0.12;
      (* Reaping is lazy: any session/stats op sweeps the idle table. *)
      ignore (expect_ok (Svc.Client.stats c));
      Alcotest.(check int) "expiry counted" 1 (counter server (kind.family ^ "_expired"));
      Alcotest.(check int) "gauge back to zero" 0 (gauge server (kind.family ^ "_active"));
      (* The id is gone, not resurrect-able. *)
      (match kind.use c id with
      | Ok _ -> Alcotest.fail "use of an expired session must fail"
      | Error d -> Alcotest.(check string) "expired id typed KF0806" "KF0806" (code_of d));
      Ok ())
  |> expect_ok

(* The table itself: a session held by an in-flight operation outlives
   its idle horizon, and its release hook runs exactly once however the
   close, the release and a later expiry or drain interleave. *)
let test_session_table_held_not_reaped () =
  let metrics = Svc.Metrics.create () in
  let released = ref 0 in
  let table =
    Svc.Session_table.create ~metrics ~family:"t" ~noun:"thing" ~id_prefix:"th"
      ~capacity:2 ~idle_ms:1.0
      ~full:(fun n -> Diag.errorf Diag.Overloaded "full at %d" n)
      ~on_release:(fun () -> incr released)
      ()
  in
  let entry = expect_ok (Svc.Session_table.open_ table (fun () -> Ok ())) in
  let id = Svc.Session_table.id entry in
  Alcotest.(check string) "id from the prefix" "th-0" id;
  let active () = Svc.Metrics.gauge metrics "t_active" in
  expect_ok
    (Svc.Session_table.with_session table id (fun held ->
         Thread.delay 0.01;
         Svc.Session_table.expire_idle table;
         Alcotest.(check int) "held session not reaped" 1 (active ());
         Alcotest.(check int) "no expiry counted" 0 (Svc.Metrics.counter metrics "t_expired");
         ignore (expect_ok (Svc.Session_table.close table id));
         Alcotest.(check int) "close defers the hook to the holder" 0 !released;
         Alcotest.(check bool) "holder sees the close" true
           (Svc.Session_table.is_closed table held)));
  Alcotest.(check int) "last holder runs the hook" 1 !released;
  Thread.delay 0.01;
  Svc.Session_table.expire_idle table;
  Svc.Session_table.release_all table;
  Alcotest.(check int) "hook ran exactly once" 1 !released;
  (* An unheld idle session is reaped, its hook run once, drain after. *)
  let other = expect_ok (Svc.Session_table.open_ table (fun () -> Ok ())) in
  Thread.delay 0.01;
  Svc.Session_table.expire_idle table;
  Svc.Session_table.release_all table;
  Alcotest.(check int) "idle session released once" 2 !released;
  Alcotest.(check int) "expiry counted" 1 (Svc.Metrics.counter metrics "t_expired");
  Alcotest.(check int) "gauge back to zero" 0 (active ());
  match Svc.Session_table.with_session table (Svc.Session_table.id other) ignore with
  | Ok () -> Alcotest.fail "an expired id must be unknown"
  | Error d -> Alcotest.(check string) "typed KF0806" "KF0806" (code_of d)

let test_stream_backpressure_retry () =
  with_server @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion")) in
      let id = stream_id opened in
      (* A bare push under the shed fault surfaces the typed KF0805 and,
         crucially, does NOT advance the stream. *)
      Faults.with_spec "stream.shed@1" (fun () ->
          match Svc.Client.stream_push c (push_req id) with
          | Ok _ -> Alcotest.fail "shed push must fail without retries"
          | Error d -> Alcotest.(check string) "shed typed KF0805" "KF0805" (code_of d));
      Alcotest.(check int) "shed counted" 1 (counter server "frames_shed");
      let reply = expect_ok (Svc.Client.stream_push c (push_req id)) in
      Alcotest.(check (float 0.0)) "shed frame did not advance the stream" 0.0
        (num (field "seq" reply));
      (* The retry helper absorbs the same shed transparently. *)
      Faults.with_spec "stream.shed@1" (fun () ->
          let retry = { Svc.Client.default_retry with attempts = 3; backoff_ms = 5.0 } in
          let reply = expect_ok (Svc.Client.stream_push_retry ~retry c (push_req id)) in
          Alcotest.(check (float 0.0)) "retried push lands exactly once" 1.0
            (num (field "seq" reply)));
      Alcotest.(check int) "both sheds counted" 2 (counter server "frames_shed");
      Alcotest.(check int) "two frames processed" 2 (counter server "frames_pushed");
      ignore (expect_ok (Svc.Client.stream_close c id));
      Ok ())
  |> expect_ok

let test_stream_drain_on_stop () =
  (* SIGTERM with live streams: signal_stop + wait must join every
     worker and release every session — no leaked plan handles, the
     gauge back at zero, the socket gone. *)
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  let crash_dir = temp_dir "kfuse-stream-crash" in
  Kfuse_util.Pool.with_pool 2 (fun pool ->
      match Svc.Server.start ~socket ~cache ~pool ~crash_dir () with
      | Error d -> Alcotest.failf "start failed: %s" (Diag.to_string d)
      | Ok server ->
        Svc.Client.with_connection ~socket (fun c ->
            let a = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion")) in
            let b = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "tharris")) in
            ignore (expect_ok (Svc.Client.stream_push c (push_req (stream_id a))));
            ignore (expect_ok (Svc.Client.stream_push c (push_req (stream_id b))));
            Ok ())
        |> expect_ok;
        Alcotest.(check int) "two live streams" 2 (gauge server "streams_active");
        Svc.Server.signal_stop server;
        Svc.Server.wait server;
        Alcotest.(check int) "drain released every stream" 0
          (gauge server "streams_active");
        Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket))

let test_stream_crash_quarantine_temporal () =
  (* The acceptance chaos scenario: a healthy native stream, then every
     execution crashes (exec.crash), the breaker trips mid-stream, and
     the remaining frames are served by the interpreter — with the
     temporal window intact, so the whole pixel history is bit-exact
     against an all-interpreter reference session. *)
  require_toolchain ();
  with_server ~breaker_threshold:2 @@ fun socket server ->
  let width = 8 and height = 6 in
  let reference = reference_session ~app:"motion" ~width ~height in
  Svc.Client.with_connection ~socket (fun c ->
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width ~height "motion")) in
      let id = stream_id opened in
      let push_and_check i =
        let reply =
          expect_ok
            (Svc.Client.stream_push c (push_req ~verify:true ~return_pixels:true id))
        in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "frame %d verify exact" i)
          0.0
          (num (field "max_abs_diff" reply));
        let frame = Frames.synthetic ~seed:42 ~width ~height ~index:i in
        check_pixels_match (Session.push reference frame) reply;
        field "exec" reply
      in
      let is_true ex name = Jsonx.member name ex = Some (Jsonx.Bool true) in
      (* Frames 0-1: the pinned native plan answers. *)
      for i = 0 to 1 do
        let ex = push_and_check i in
        Alcotest.(check bool)
          (Printf.sprintf "frame %d native" i)
          false (is_true ex "fallback")
      done;
      (* Frames 2-3: every native execution crashes.  The frames still
         ship — interpreter fallback on the same bindings — and the
         second consecutive crash trips the breaker. *)
      Faults.with_spec "exec.crash/1" (fun () ->
          for i = 2 to 3 do
            let ex = push_and_check i in
            Alcotest.(check bool)
              (Printf.sprintf "frame %d fell back" i)
              true (is_true ex "fallback")
          done);
      Alcotest.(check int) "crashes counted" 2 (counter server "native_exec_crashes");
      Alcotest.(check int) "breaker tripped" 1 (gauge server "quarantined_plans");
      (* Frames 4-5: faults cleared, but the plan is quarantined (the
         cooldown has not elapsed): the interpreter keeps answering. *)
      for i = 4 to 5 do
        let ex = push_and_check i in
        Alcotest.(check bool)
          (Printf.sprintf "frame %d quarantined" i)
          true (is_true ex "quarantined");
        Alcotest.(check bool)
          (Printf.sprintf "frame %d interpreter" i)
          true
          (Jsonx.member "mode" ex = Some (Jsonx.Str "interpreter"))
      done;
      let closed = expect_ok (Svc.Client.stream_close c id) in
      Alcotest.(check (float 0.0)) "all six frames shipped" 6.0
        (num (field "frames" closed));
      Ok ())
  |> expect_ok

let test_stream_compile_once_bitexact () =
  (* The per-frame overhead contract: opening a stream compiles exactly
     once (a real compiler invocation, the cache dir is fresh), pushes
     reuse the pinned plan with zero further compiles, and a 10-frame
     motion sequence is bit-exact native-vs-interpreter. *)
  require_toolchain ();
  let cache_dir = temp_dir "kfuse-stream-cache" in
  with_server ~cache_dir @@ fun socket _server ->
  let width = 16 and height = 12 in
  let reference = reference_session ~app:"motion" ~width ~height in
  Svc.Client.with_connection ~socket (fun c ->
      let before = Native.compiles () in
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width ~height "motion")) in
      Alcotest.(check int) "open compiles exactly once" 1 (Native.compiles () - before);
      Alcotest.(check bool) "fresh cache dir: not a cache hit" false
        (field "artifact_cached" (field "exec" opened) = Jsonx.Bool true);
      let id = stream_id opened in
      let after_open = Native.compiles () in
      for i = 0 to 9 do
        let reply =
          expect_ok
            (Svc.Client.stream_push c (push_req ~verify:true ~return_pixels:true id))
        in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "frame %d native vs interpreter" i)
          0.0
          (num (field "max_abs_diff" reply));
        let frame = Frames.synthetic ~seed:42 ~width ~height ~index:i in
        check_pixels_match (Session.push reference frame) reply
      done;
      Alcotest.(check int) "pushes never compile" 0 (Native.compiles () - after_open);
      ignore (expect_ok (Svc.Client.stream_close c id));
      (* A second stream of the same pipeline reuses the artifact: the
         compile cache, not the compiler. *)
      let second = expect_ok (Svc.Client.stream_open c (open_req ~width ~height "motion")) in
      Alcotest.(check int) "second open is a cache hit" 0
        (Native.compiles () - after_open);
      Alcotest.(check bool) "reply says cached" true
        (field "artifact_cached" (field "exec" second) = Jsonx.Bool true);
      ignore (expect_ok (Svc.Client.stream_close c (stream_id second)));
      Ok ())
  |> expect_ok

(* The sandbox policy x requested mode contract, end to end: which
   backend each policy picks for fuse_exec and stream_open, and the
   exact key set of every [exec] object a client can see. *)
let exec_req ?exec_mode app =
  {
    Protocol.fuse = fuse_req app;
    exec_mode;
    width = Some 16;
    height = Some 12;
    seed = 1;
    repeat = 1;
    verify = false;
    return_pixels = false;
  }

let exec_keys reply =
  match field "exec" reply with
  | Jsonx.Obj fields -> List.sort String.compare (List.map fst fields)
  | v -> Alcotest.failf "exec is not an object: %s" (Jsonx.to_string v)

let test_policy_mode_contract () =
  require_toolchain ();
  let sorted = List.sort String.compare in
  let check_modes ?exec_sandbox ?exec_mode ~mode ~sandboxed () =
    with_server ?exec_sandbox ~breaker_threshold:1 @@ fun socket _server ->
    Svc.Client.with_connection ~socket (fun c ->
        let check what reply =
          let ex = field "exec" reply in
          Alcotest.(check string) (what ^ " mode") mode (str (field "mode" ex));
          Alcotest.(check bool) (what ^ " sandboxed") true
            (field "sandboxed" ex = Jsonx.Bool sandboxed)
        in
        let ran = expect_ok (Svc.Client.fuse_exec c (exec_req ?exec_mode "sobel")) in
        check "fuse_exec" ran;
        Alcotest.(check (list string)) "native fuse_exec exec keys"
          (sorted
             [ "mode"; "sandboxed"; "quarantined"; "artifact"; "artifact_cached";
               "compile_ms"; "exec_ms"; "samples_ms"; "warnings" ])
          (exec_keys ran);
        let opened =
          expect_ok
            (Svc.Client.stream_open c
               { (open_req ~width:16 ~height:12 "motion") with Protocol.exec_mode })
        in
        check "stream_open" opened;
        Alcotest.(check (list string)) "stream_open exec keys"
          (sorted
             [ "mode"; "sandboxed"; "artifact"; "artifact_cached"; "compile_ms"; "warnings" ])
          (exec_keys opened);
        let pushed = expect_ok (Svc.Client.stream_push c (push_req (stream_id opened))) in
        check "stream_push" pushed;
        Alcotest.(check (list string)) "stream_push exec keys"
          (sorted [ "mode"; "sandboxed"; "quarantined"; "fallback"; "exec_ms"; "warnings" ])
          (exec_keys pushed);
        ignore (expect_ok (Svc.Client.stream_close c (stream_id opened)));
        (* One crash at threshold 1 quarantines the plan: the next
           fuse_exec is answered by the interpreter. *)
        Faults.with_spec "exec.crash/1" (fun () ->
            match Svc.Client.fuse_exec c (exec_req ~exec_mode:Native.Subprocess "sobel") with
            | Ok _ -> Alcotest.fail "a crashing plan must fail typed"
            | Error d -> Alcotest.(check string) "crash typed KF0906" "KF0906" (code_of d));
        let quarantined =
          expect_ok (Svc.Client.fuse_exec c (exec_req ~exec_mode:Native.Subprocess "sobel"))
        in
        Alcotest.(check string) "quarantined mode" "interpreter"
          (str (field "mode" (field "exec" quarantined)));
        Alcotest.(check (list string)) "quarantined fuse_exec exec keys"
          (sorted
             [ "mode"; "quarantined"; "artifact"; "artifact_cached"; "compile_ms";
               "exec_ms"; "samples_ms"; "warnings" ])
          (exec_keys quarantined);
        Ok ())
    |> expect_ok
  in
  (* Default policy: a requested dlopen is overridden, visibly. *)
  check_modes ~exec_mode:Native.Dlopen ~mode:"subprocess" ~sandboxed:true ();
  (* dlopen-trusted: auto picks dlopen, an explicit mode is honoured. *)
  check_modes ~exec_sandbox:Kfuse_exec.Supervisor.Dlopen_trusted ~mode:"dlopen"
    ~sandboxed:false ();
  check_modes ~exec_sandbox:Kfuse_exec.Supervisor.Dlopen_trusted
    ~exec_mode:Native.Subprocess ~mode:"subprocess" ~sandboxed:false ()

let suite =
  [
    Alcotest.test_case "temporal: naming convention and analysis" `Quick
      test_temporal_analysis;
    Alcotest.test_case "session: cold-start clamp and ring eviction" `Quick
      test_session_window;
    Alcotest.test_case "session: interpreter matches manual lagged eval" `Quick
      test_session_matches_manual_eval;
    Alcotest.test_case "protocol: stream ops round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "stream: open/push/close lifecycle" `Quick test_stream_lifecycle;
    Alcotest.test_case "stream: unknown id is a typed KF0806" `Quick
      test_stream_unknown_id;
    Alcotest.test_case "stream: capacity shed with KF0803, slot freed on close" `Quick
      (test_capacity_shed stream_kind);
    Alcotest.test_case "stream: idle sessions are reaped lazily" `Quick
      (test_idle_expiry stream_kind);
    Alcotest.test_case "lazy: capacity shed with KF0803, slot freed on close" `Quick
      (test_capacity_shed lazy_kind);
    Alcotest.test_case "lazy: idle sessions are reaped lazily" `Quick
      (test_idle_expiry lazy_kind);
    Alcotest.test_case "session table: held session not reaped, hook once" `Quick
      test_session_table_held_not_reaped;
    Alcotest.test_case "stream: backpressure shed retried exactly once" `Quick
      test_stream_backpressure_retry;
    Alcotest.test_case "stream: stop drains and releases live streams" `Quick
      test_stream_drain_on_stop;
    Alcotest.test_case "stream: mid-stream crash quarantines, history bit-exact" `Slow
      test_stream_crash_quarantine_temporal;
    Alcotest.test_case "stream: one compile per stream, 10 frames bit-exact" `Slow
      test_stream_compile_once_bitexact;
    Alcotest.test_case "exec: sandbox policy x requested mode contract" `Slow
      test_policy_mode_contract;
  ]
