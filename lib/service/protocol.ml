module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Driver = Kfuse_fusion.Driver

let max_frame = 16 * 1024 * 1024

(* ---- framing ---- *)

(* A write to a vanished peer must surface as [Unix_error EPIPE] — which
   the server's send guard and the client's [request] already turn into a
   dropped connection / Service_error — not as a process-killing SIGPIPE.
   Forced on first [send], so both kfused and the client CLI are covered. *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

(* EINTR always retries: a signal landing mid-frame must not kill the
   request.  EAGAIN/EWOULDBLOCK only arrives when an [SO_SNDTIMEO] is
   armed on the socket, i.e. the kernel already blocked for one full
   timeout period; retry while the caller's deadline allows, surface
   {!Kfuse_util.Deadline.Expired} once it does not.  Without a deadline
   the socket-level timeout is authoritative and the error propagates —
   retrying forever would let a slow-loris peer pin the writer. *)
let write_all ?(deadline = Deadline.none) fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then begin
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        when deadline <> Deadline.none ->
        Deadline.check deadline;
        go off
    end
  in
  go 0

(* [Ok false] on EOF before the first byte; raises Protocol_error-shaped
   [Error] through the caller for EOF mid-frame. *)
let read_exactly fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off >= len then Ok true
    else
      match Unix.read fd bytes off (len - off) with
      | 0 ->
        if off = 0 then Ok false
        else Error (Diag.errorf Diag.Protocol_error "connection closed mid-frame (%d/%d bytes)" off len)
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* An armed [SO_RCVTIMEO] elapsed: the peer is slow or gone.
           Typed so the caller can answer [KF0804] and free the slot. *)
        Error
          (Diag.errorf Diag.Request_timeout "read timed out (%d/%d bytes)" off len)
      | exception Unix.Unix_error (e, _, _) ->
        (* A reset peer is a protocol-level event, not an exception: the
           caller decides whether to drop the connection. *)
        Error (Diag.errorf Diag.Protocol_error "read failed: %s" (Unix.error_message e))
  in
  go 0

let encode v =
  let payload = Bytes.unsafe_of_string (Jsonx.to_string v) in
  let len = Bytes.length payload in
  if len > max_frame then
    Diag.fail
      (Diag.errorf Diag.Protocol_error "frame of %d bytes exceeds the %d-byte limit" len
         max_frame);
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int len);
  (header, payload)

let send ?deadline fd v =
  Lazy.force ignore_sigpipe;
  let header, payload = encode v in
  write_all ?deadline fd header;
  write_all ?deadline fd payload

let send_torn fd v =
  Lazy.force ignore_sigpipe;
  let header, payload = encode v in
  write_all fd header;
  write_all fd (Bytes.sub payload 0 (Bytes.length payload / 2))

let recv fd =
  let header = Bytes.create 4 in
  match read_exactly fd header with
  | Error _ as e -> e |> Result.map (fun _ -> None)
  | Ok false -> Ok None
  | Ok true -> (
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame then
      Error (Diag.errorf Diag.Protocol_error "frame length %d out of range (max %d)" len max_frame)
    else
      let payload = Bytes.create len in
      match read_exactly fd payload with
      | Error _ as e -> Result.map (fun _ -> None) e
      | Ok false ->
        Error (Diag.errorf Diag.Protocol_error "connection closed before %d-byte payload" len)
      | Ok true -> (
        match Jsonx.of_string (Bytes.unsafe_to_string payload) with
        | Ok v -> Ok (Some v)
        | Error msg -> Error (Diag.errorf Diag.Protocol_error "invalid JSON payload: %s" msg)))

(* ---- requests ---- *)

type fuse_request = {
  app : string option;
  source : string option;
  strategy : Driver.strategy;
  c_mshared : float option;
  gamma : float option;
  tg : float option;
  optimize : bool;
  inline : bool;
  strict : bool;
  budget_ms : float option;
  no_cache : bool;
}

type fuse_exec_request = {
  fuse : fuse_request;
  exec_mode : Kfuse_exec.Native.mode option;  (* None = auto with fallback *)
  width : int option;
  height : int option;
  seed : int;
  repeat : int;
  verify : bool;
  return_pixels : bool;
}

type stream_open_request = {
  fuse : fuse_request;
  exec_mode : Kfuse_exec.Native.mode option;  (* None = auto with fallback *)
  width : int option;
  height : int option;
  seed : int;
}

type stream_push_request = {
  id : string;
  verify : bool;
  return_pixels : bool;
}

type lazy_open_request = {
  app : string option;
  source : string option;  (* seed pipeline; both None = empty builder *)
  width : int option;  (* required for an empty builder *)
  height : int option;
  channels : int option;
  inputs : string list;  (* empty-builder input declarations *)
  c_mshared : float option;
  gamma : float option;
  tg : float option;
}

type lazy_edit_request = {
  id : string;
  command : string;  (* one line of the repl edit grammar *)
}

type lazy_flush_request = {
  id : string;
  scratch : bool;  (* bypass the session memos (differential reference) *)
}

type request =
  | Fuse of fuse_request
  | Fuse_exec of fuse_exec_request
  | Stream_open of stream_open_request
  | Stream_push of stream_push_request
  | Stream_close of string  (* session id *)
  | Lazy_open of lazy_open_request
  | Lazy_edit of lazy_edit_request
  | Lazy_flush of lazy_flush_request
  | Lazy_close of string  (* session id *)
  | Stats
  | Metrics
  | Ping
  | Shutdown

let fuse_fields (f : fuse_request) =
  let opt name conv v fields =
    match v with None -> fields | Some v -> (name, conv v) :: fields
  in
  let fields =
    []
    |> opt "budget_ms" (fun v -> Jsonx.Num v) f.budget_ms
    |> opt "tg" (fun v -> Jsonx.Num v) f.tg
    |> opt "gamma" (fun v -> Jsonx.Num v) f.gamma
    |> opt "c_mshared" (fun v -> Jsonx.Num v) f.c_mshared
    |> opt "source" (fun v -> Jsonx.Str v) f.source
    |> opt "app" (fun v -> Jsonx.Str v) f.app
  in
  let fields = if f.optimize then ("optimize", Jsonx.Bool true) :: fields else fields in
  let fields = if f.inline then ("inline", Jsonx.Bool true) :: fields else fields in
  let fields = if f.strict then ("strict", Jsonx.Bool true) :: fields else fields in
  let fields = if f.no_cache then ("no_cache", Jsonx.Bool true) :: fields else fields in
  ("strategy", Jsonx.Str (Driver.strategy_to_string f.strategy)) :: fields

let op_name = function
  | Fuse _ -> "fuse"
  | Fuse_exec _ -> "fuse_exec"
  | Stream_open _ -> "stream_open"
  | Stream_push _ -> "stream_push"
  | Stream_close _ -> "stream_close"
  | Lazy_open _ -> "lazy_open"
  | Lazy_edit _ -> "lazy_edit"
  | Lazy_flush _ -> "lazy_flush"
  | Lazy_close _ -> "lazy_close"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let fusion_config ~c_mshared ~gamma ~tg =
  let default = Kfuse_fusion.Config.default in
  {
    default with
    Kfuse_fusion.Config.c_mshared =
      Option.value ~default:default.Kfuse_fusion.Config.c_mshared c_mshared;
    gamma = Option.value ~default:default.Kfuse_fusion.Config.gamma gamma;
    tg = Option.value ~default:default.Kfuse_fusion.Config.tg tg;
  }

let request_to_json req =
  let opt name conv v fields =
    match v with None -> fields | Some v -> (name, conv v) :: fields
  in
  let int v = Jsonx.Num (float_of_int v) in
  let flag name b fields = if b then (name, Jsonx.Bool true) :: fields else fields in
  let exec_mode m = Jsonx.Str (Kfuse_exec.Native.mode_to_string m) in
  let fields =
    match req with
    | Stats | Metrics | Ping | Shutdown -> []
    | Fuse f -> fuse_fields f
    | Fuse_exec e ->
      let fields =
        fuse_fields e.fuse
        |> opt "exec_mode" exec_mode e.exec_mode
        |> opt "width" int e.width
        |> opt "height" int e.height
      in
      let fields = ("seed", int e.seed) :: fields in
      let fields = if e.repeat <> 1 then ("repeat", int e.repeat) :: fields else fields in
      fields |> flag "verify" e.verify |> flag "return_pixels" e.return_pixels
    | Stream_open o ->
      let fields =
        fuse_fields o.fuse
        |> opt "exec_mode" exec_mode o.exec_mode
        |> opt "width" int o.width
        |> opt "height" int o.height
      in
      ("seed", int o.seed) :: fields
    | Stream_push s ->
      [ ("id", Jsonx.Str s.id) ] |> flag "verify" s.verify
      |> flag "return_pixels" s.return_pixels
    | Stream_close id | Lazy_close id -> [ ("id", Jsonx.Str id) ]
    | Lazy_open o ->
      let num v = Jsonx.Num v in
      let fields =
        []
        |> opt "tg" num o.tg
        |> opt "gamma" num o.gamma
        |> opt "c_mshared" num o.c_mshared
        |> opt "channels" int o.channels
        |> opt "height" int o.height
        |> opt "width" int o.width
        |> opt "source" (fun v -> Jsonx.Str v) o.source
        |> opt "app" (fun v -> Jsonx.Str v) o.app
      in
      if o.inputs = [] then fields
      else ("inputs", Jsonx.Arr (List.map (fun i -> Jsonx.Str i) o.inputs)) :: fields
    | Lazy_edit e -> [ ("id", Jsonx.Str e.id); ("command", Jsonx.Str e.command) ]
    | Lazy_flush f -> [ ("id", Jsonx.Str f.id) ] |> flag "scratch" f.scratch
  in
  Jsonx.Obj (("op", Jsonx.Str (op_name req)) :: fields)

let proto_error fmt = Printf.ksprintf (fun m -> Error (Diag.v Diag.Protocol_error m)) fmt

(* A present-but-mistyped field is a protocol error, not a silent
   default: clients should learn immediately, not get surprising plans. *)
let typed_field name accessor what v =
  match Jsonx.member name v with
  | None -> Ok None
  | Some field -> (
    match accessor field with
    | Some x -> Ok (Some x)
    | None -> proto_error "field %S must be a %s" name what)

let ( let* ) = Result.bind

let fuse_of_json v =
  let* app = typed_field "app" Jsonx.str "string" v in
  let* source = typed_field "source" Jsonx.str "string" v in
  let* strategy_name = typed_field "strategy" Jsonx.str "string" v in
  let* strategy =
    match strategy_name with
    | None -> Ok Driver.Mincut
    | Some s -> (
      match Driver.strategy_of_string s with
      | Some s -> Ok s
      | None -> proto_error "unknown strategy %S" s)
  in
  let* c_mshared = typed_field "c_mshared" Jsonx.num "number" v in
  let* gamma = typed_field "gamma" Jsonx.num "number" v in
  let* tg = typed_field "tg" Jsonx.num "number" v in
  let* optimize = typed_field "optimize" Jsonx.bool "boolean" v in
  let* inline = typed_field "inline" Jsonx.bool "boolean" v in
  let* strict = typed_field "strict" Jsonx.bool "boolean" v in
  let* budget_ms = typed_field "budget_ms" Jsonx.num "number" v in
  let* no_cache = typed_field "no_cache" Jsonx.bool "boolean" v in
  let* () =
    match (app, source) with
    | Some _, Some _ -> proto_error "pass either \"app\" or \"source\", not both"
    | None, None -> proto_error "fuse needs an \"app\" name or \"source\" text"
    | _ -> Ok ()
  in
  Ok
    {
      app;
      source;
      strategy;
      c_mshared;
      gamma;
      tg;
      optimize = Option.value ~default:false optimize;
      inline = Option.value ~default:false inline;
      strict = Option.value ~default:false strict;
      budget_ms;
      no_cache = Option.value ~default:false no_cache;
    }

(* JSON numbers are floats on the wire; extents and counts must be
   whole and positive to be meaningful. *)
let int_field name v =
  let* n = typed_field name Jsonx.num "number" v in
  match n with
  | None -> Ok None
  | Some f ->
    if Float.is_integer f && f >= 1.0 && f <= 1e9 then Ok (Some (int_of_float f))
    else proto_error "field %S must be a positive integer" name

let exec_mode_field v =
  let* name = typed_field "exec_mode" Jsonx.str "string" v in
  match name with
  | None -> Ok None
  | Some s -> (
    match Kfuse_exec.Native.mode_request_of_string s with
    | Some m -> Ok m
    | None -> proto_error "unknown exec_mode %S (auto, dlopen or subprocess)" s)

let request_of_json v =
  match Jsonx.mem_str "op" v with
  | None -> proto_error "request must be an object with a string \"op\" field"
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some "fuse" ->
    let* f = fuse_of_json v in
    Ok (Fuse f)
  | Some "fuse_exec" ->
    let* fuse = fuse_of_json v in
    let* exec_mode = exec_mode_field v in
    let* width = int_field "width" v in
    let* height = int_field "height" v in
    let* () =
      match (width, height) with
      | Some _, None | None, Some _ ->
        proto_error "pass \"width\" and \"height\" together"
      | _ -> Ok ()
    in
    let* seed = int_field "seed" v in
    let* repeat = int_field "repeat" v in
    let* verify = typed_field "verify" Jsonx.bool "boolean" v in
    let* return_pixels = typed_field "return_pixels" Jsonx.bool "boolean" v in
    Ok
      (Fuse_exec
         {
           fuse;
           exec_mode;
           width;
           height;
           seed = Option.value ~default:42 seed;
           repeat = Option.value ~default:1 repeat;
           verify = Option.value ~default:false verify;
           return_pixels = Option.value ~default:false return_pixels;
         })
  | Some "stream_open" ->
    let* fuse = fuse_of_json v in
    let* exec_mode = exec_mode_field v in
    let* width = int_field "width" v in
    let* height = int_field "height" v in
    let* () =
      match (width, height) with
      | Some _, None | None, Some _ ->
        proto_error "pass \"width\" and \"height\" together"
      | _ -> Ok ()
    in
    let* seed = int_field "seed" v in
    Ok
      (Stream_open
         { fuse; exec_mode; width; height; seed = Option.value ~default:42 seed })
  | Some "stream_push" ->
    let* id = typed_field "id" Jsonx.str "string" v in
    let* id =
      match id with
      | Some id -> Ok id
      | None -> proto_error "stream_push needs a string \"id\" field"
    in
    let* verify = typed_field "verify" Jsonx.bool "boolean" v in
    let* return_pixels = typed_field "return_pixels" Jsonx.bool "boolean" v in
    Ok
      (Stream_push
         {
           id;
           verify = Option.value ~default:false verify;
           return_pixels = Option.value ~default:false return_pixels;
         })
  | Some "stream_close" -> (
    let* id = typed_field "id" Jsonx.str "string" v in
    match id with
    | Some id -> Ok (Stream_close id)
    | None -> proto_error "stream_close needs a string \"id\" field")
  | Some "lazy_open" ->
    let* app = typed_field "app" Jsonx.str "string" v in
    let* source = typed_field "source" Jsonx.str "string" v in
    let* width = int_field "width" v in
    let* height = int_field "height" v in
    let* channels = int_field "channels" v in
    let* inputs =
      match Jsonx.member "inputs" v with
      | None -> Ok []
      | Some field -> (
        match Jsonx.arr field with
        | None -> proto_error "field \"inputs\" must be an array of strings"
        | Some items ->
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              match Jsonx.str item with
              | Some s -> Ok (s :: acc)
              | None -> proto_error "field \"inputs\" must be an array of strings")
            (Ok []) items
          |> Result.map List.rev)
    in
    let* c_mshared = typed_field "c_mshared" Jsonx.num "number" v in
    let* gamma = typed_field "gamma" Jsonx.num "number" v in
    let* tg = typed_field "tg" Jsonx.num "number" v in
    let* () =
      match (app, source) with
      | Some _, Some _ -> proto_error "pass either \"app\" or \"source\", not both"
      | None, None when width = None || height = None ->
        proto_error
          "lazy_open needs an \"app\"/\"source\" seed, or \"width\" and \"height\" for \
           an empty builder"
      | _ -> Ok ()
    in
    Ok (Lazy_open { app; source; width; height; channels; inputs; c_mshared; gamma; tg })
  | Some "lazy_edit" -> (
    let* id = typed_field "id" Jsonx.str "string" v in
    let* command = typed_field "command" Jsonx.str "string" v in
    match (id, command) with
    | Some id, Some command -> Ok (Lazy_edit { id; command })
    | _ -> proto_error "lazy_edit needs string \"id\" and \"command\" fields")
  | Some "lazy_flush" -> (
    let* id = typed_field "id" Jsonx.str "string" v in
    let* scratch = typed_field "scratch" Jsonx.bool "boolean" v in
    match id with
    | Some id -> Ok (Lazy_flush { id; scratch = Option.value ~default:false scratch })
    | None -> proto_error "lazy_flush needs a string \"id\" field")
  | Some "lazy_close" -> (
    let* id = typed_field "id" Jsonx.str "string" v in
    match id with
    | Some id -> Ok (Lazy_close id)
    | None -> proto_error "lazy_close needs a string \"id\" field")
  | Some op -> proto_error "unknown op %S" op

(* ---- responses ---- *)

let ok fields = Jsonx.Obj (("status", Jsonx.Str "ok") :: fields)
let is_ok v = Jsonx.mem_str "status" v = Some "ok"

let error (d : Diag.t) =
  Jsonx.Obj
    [
      ("status", Jsonx.Str "error");
      ("code", Jsonx.Str (Diag.code_id d.Diag.code));
      ("severity", Jsonx.Str (Diag.severity_to_string d.Diag.severity));
      ("message", Jsonx.Str d.Diag.message);
    ]

let result v =
  match Jsonx.mem_str "status" v with
  | Some "ok" -> Ok v
  | Some "error" ->
    let message = Option.value ~default:"unspecified server error" (Jsonx.mem_str "message" v) in
    (* Fold the wire-level code back into the typed diagnostic, so a
       client can dispatch (e.g. retry [KF0803]) without string
       matching; an unknown code degrades to [Service_error]. *)
    let code =
      Option.value ~default:Diag.Service_error
        (Option.bind (Jsonx.mem_str "code" v) Diag.code_of_id)
    in
    Error (Diag.errorf code "%s" message)
  | _ -> proto_error "response lacks a valid \"status\" field"
