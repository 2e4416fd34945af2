module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Faults = Kfuse_util.Faults
module Fingerprint = Kfuse_cache.Fingerprint
module Pipeline = Kfuse_ir.Pipeline

(* {1 Sandbox policy} *)

type policy = Sandboxed | Dlopen_trusted

let policy_to_string = function Sandboxed -> "on" | Dlopen_trusted -> "dlopen-trusted"

let policy_of_string = function
  | "on" -> Some Sandboxed
  | "dlopen-trusted" -> Some Dlopen_trusted
  | _ -> None

(* {1 Resource limits} *)

type limits = {
  wall_ms : float option;
  cpu_s : int option;
  mem_bytes : int option;
  fsize_bytes : int option;
}

let no_limits = { wall_ms = None; cpu_s = None; mem_bytes = None; fsize_bytes = None }

let default_limits =
  {
    wall_ms = Some 30_000.;
    cpu_s = Some 60;
    mem_bytes = Some (2 * 1024 * 1024 * 1024);
    fsize_bytes = Some (256 * 1024 * 1024);
  }

(* {1 Outcome} *)

type failure =
  | Timeout of { wall_ms : float; escalated : bool }
  | Crashed of { signal : string }
  | Limit of { what : string; signal : string }
  | Nonzero_exit of { code : int }
  | Spawn_failed of { reason : string }

type run = {
  status : (unit, failure) result;
  wall_ms : float;
  stderr_tail : string;
}

let signal_name s =
  let names =
    [
      (Sys.sigsegv, "SIGSEGV"); (Sys.sigbus, "SIGBUS"); (Sys.sigfpe, "SIGFPE");
      (Sys.sigill, "SIGILL"); (Sys.sigabrt, "SIGABRT"); (Sys.sigterm, "SIGTERM");
      (Sys.sigkill, "SIGKILL"); (Sys.sigint, "SIGINT"); (Sys.sigpipe, "SIGPIPE");
      (Sys.sigquit, "SIGQUIT"); (Sys.sigxcpu, "SIGXCPU"); (Sys.sigxfsz, "SIGXFSZ");
      (Sys.sigtrap, "SIGTRAP"); (Sys.sighup, "SIGHUP"); (Sys.sigusr1, "SIGUSR1");
      (Sys.sigusr2, "SIGUSR2");
    ]
  in
  match List.assoc_opt s names with
  | Some n -> n
  | None -> Printf.sprintf "signal %d" s

(* Bound every captured stderr tail before it is embedded in a KF09xx
   diagnostic: diagnostics travel over the 16 MiB-capped wire protocol,
   and a misbehaving child can write arbitrarily much. *)
let stderr_tail_limit = 4096

let tail_of_fd fd =
  let n = (Unix.fstat fd).Unix.st_size in
  let keep = min n stderr_tail_limit in
  if keep = 0 then ""
  else begin
    ignore (Unix.lseek fd (n - keep) Unix.SEEK_SET);
    let buf = Bytes.create keep in
    let rec fill off =
      if off >= keep then off
      else match Unix.read fd buf off (keep - off) with 0 -> off | k -> fill (off + k)
    in
    let s = Bytes.sub_string buf 0 (fill 0) in
    if keep < n then "[... truncated ...]\n" ^ s else s
  end

(* {1 Stubs (kfuse_exec_stubs.c)} *)

(* The whole fork/dup2/setrlimit/exec sequence lives in a C stub:
   OCaml 5 forbids [Unix.fork] once other domains exist — and both
   kfused's fusion pool and the test runner create domains — while a
   C-side fork whose child runs only async-signal-safe libc calls and
   never re-enters the OCaml runtime is fine.  The three fds become the
   child's 0-2 and it holds no other.  Limits are [RLIMIT_CPU (s);
   RLIMIT_AS; RLIMIT_FSIZE], -1 for unlimited.  Returns the child pid;
   raises [Failure] when the fork itself fails. *)
external raw_spawn :
  string array -> Unix.file_descr * Unix.file_descr * Unix.file_descr -> int array -> int
  = "kfuse_spawn"

(* A close-on-exec memfd of the given size, its size sealed if asked. *)
external memfd : string -> int -> bool -> Unix.file_descr = "kfuse_memfd"

let limit_value = function None -> -1 | Some v -> v

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* {1 Child processes} *)

(* Every process this module starts is a [Child.t]: the compiler under
   [run], a plan's fork-server, a shard.  One latched [poll], one
   [signal] and one watchdog [wait] serve them all. *)
module Child = struct
  type t = {
    pid : int;
    group : bool;  (* leads its own process group: signal the group too *)
    lock : Mutex.t;
    mutable reaped : Unix.process_status option;
        (* waitpid races: the monitor thread and the drain path may both
           poll; the first reap latches the status for everyone else. *)
  }

  let pid t = t.pid

  let start ?(limits = no_limits) ?(group = false) fds argv =
    match argv with
    | [] -> Error "empty argv"
    | _ -> (
      let lims =
        [| limit_value limits.cpu_s; limit_value limits.mem_bytes; limit_value limits.fsize_bytes |]
      in
      match raw_spawn (Array.of_list argv) fds lims with
      | pid -> Ok { pid; group; lock = Mutex.create (); reaped = None }
      | exception Failure reason -> Error reason)

  let spawn ?log ~argv () =
    let opened = ref [] in
    let open_ path flags =
      let fd = Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o600 in
      opened := fd :: !opened;
      fd
    in
    Fun.protect ~finally:(fun () -> List.iter close_quietly !opened) @@ fun () ->
    match
      let null = open_ "/dev/null" [ Unix.O_RDWR ] in
      let out =
        match log with
        | None -> null
        | Some path -> open_ path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      in
      (null, out)
    with
    | exception Unix.Unix_error (e, _, p) ->
      Error (Printf.sprintf "cannot open %s: %s" p (Unix.error_message e))
    | null, out -> start (null, out, out) argv

  (* Non-blocking reap: [None] while the child is still running, the
     latched exit status once it is gone.  Never raises — an ECHILD
     (someone else reaped it) degrades to a synthetic 0 exit. *)
  let poll t =
    Mutex.lock t.lock;
    let r =
      match t.reaped with
      | Some _ as s -> s
      | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] t.pid with
        | 0, _ -> None
        | _, st ->
          t.reaped <- Some st;
          Some st
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          let st = Unix.WEXITED 0 in
          t.reaped <- Some st;
          Some st)
    in
    Mutex.unlock t.lock;
    r

  let running t = poll t = None

  (* Until the reap the pid (and a group's id) cannot be recycled, so no
     signal reaches a stranger; a dead but unreaped child is still
     signalled, which is how a group kill reaches what it left behind. *)
  let signal t s =
    Mutex.lock t.lock;
    if t.reaped = None then begin
      if t.group then (try Unix.kill (-t.pid) s with Unix.Unix_error _ -> ());
      try Unix.kill t.pid s with Unix.Unix_error _ -> ()
    end;
    Mutex.unlock t.lock

  let kill t = signal t Sys.sigkill

  (* The one watchdog: SIGTERM once [wall_ms] has passed since the call
     (never without one), SIGKILL [grace_ms] after that, and the reap,
     polled every millisecond.  Returns the status, the wall time, and
     whether the watchdog fired and escalated. *)
  let wait ?wall_ms ~grace_ms t =
    let t0 = Unix.gettimeofday () in
    let rec go term_at escalated =
      let now = Unix.gettimeofday () in
      let term_at =
        match (term_at, wall_ms) with
        | None, Some w when (now -. t0) *. 1000. >= w ->
          signal t Sys.sigterm;
          Some now
        | _ -> term_at
      in
      let escalated =
        match term_at with
        | Some at when (not escalated) && (now -. at) *. 1000. >= grace_ms ->
          kill t;
          true
        | _ -> escalated
      in
      match poll t with
      | Some st -> (st, (Unix.gettimeofday () -. t0) *. 1000., term_at <> None, escalated)
      | None ->
        Unix.sleepf 0.001;
        go term_at escalated
    in
    go None false

  let terminate ?(grace_ms = 2_000.) t =
    let st, _, _, _ = wait ~wall_ms:0. ~grace_ms t in
    st
end

(* {1 Chaos misbehaviour (exec.* fault points)} *)

type misbehave = No_fault | Fault_crash | Fault_hang | Fault_oom

(* {1 Classification} *)

let classify ~limits ~misbehave ~watchdog_fired ~escalated ~wall status =
  match status with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED 127 ->
    Error (Spawn_failed { reason = "could not execute the artifact (exit 127)" })
  | Unix.WEXITED code -> Error (Nonzero_exit { code })
  | Unix.WSTOPPED s ->
    (* waitpid without WUNTRACED never reports stops; keep the match
       total anyway. *)
    Error (Crashed { signal = signal_name s })
  | Unix.WSIGNALED s ->
    if watchdog_fired && (s = Sys.sigterm || s = Sys.sigkill) then
      Error (Timeout { wall_ms = wall; escalated })
    else if s = Sys.sigxcpu || (s = Sys.sigkill && limits.cpu_s <> None) then
      (* SIGXCPU at the soft limit; the kernel sends SIGKILL at the hard
         one if the child ignored the first warning. *)
      Error (Limit { what = "CPU time (RLIMIT_CPU)"; signal = signal_name s })
    else if s = Sys.sigxfsz then
      Error (Limit { what = "output file size (RLIMIT_FSIZE)"; signal = signal_name s })
    else if s = Sys.sigabrt && (limits.mem_bytes <> None || misbehave = Fault_oom) then
      (* Generated code routes every allocation through kf_malloc, which
         abort()s on failure — under RLIMIT_AS that is the canonical
         out-of-memory signature.  The stderr tail disambiguates the
         rare genuine assert. *)
      Error
        (Limit
           { what = "address space (RLIMIT_AS): allocation failed"; signal = signal_name s })
    else Error (Crashed { signal = signal_name s })

(* {1 Supervised run} *)

let default_grace_ms = 500.

let wall_budget ~deadline ~(limits : limits) =
  match (Deadline.remaining_ms deadline, limits.wall_ms) with
  | None, w -> w
  | Some r, None -> Some r
  | Some r, Some w -> Some (Float.min r w)

let expired_run =
  { status = Error (Timeout { wall_ms = 0.; escalated = false }); wall_ms = 0.; stderr_tail = "" }

let spawn_failed reason = { status = Error (Spawn_failed { reason }); wall_ms = 0.; stderr_tail = "" }

let run ?(deadline = Deadline.none) ?(limits = no_limits) ~argv () =
  match wall_budget ~deadline ~limits with
  | Some w when w <= 0. ->
    (* The deadline is already gone: don't even spawn. *)
    expired_run
  | wall_ms -> (
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    Fun.protect ~finally:(fun () -> close_quietly null) @@ fun () ->
    let err = memfd "kfuse-stderr" 0 false in
    Fun.protect ~finally:(fun () -> close_quietly err) @@ fun () ->
    match Child.start ~limits (null, null, err) argv with
    | Error reason -> spawn_failed reason
    | Ok c ->
      let status, wall, watchdog_fired, escalated =
        Child.wait ?wall_ms ~grace_ms:default_grace_ms c
      in
      {
        status = classify ~limits ~misbehave:No_fault ~watchdog_fired ~escalated ~wall status;
        wall_ms = wall;
        stderr_tail = (try tail_of_fd err with Unix.Unix_error _ -> "");
      })

let failure_diag ~what r =
  match r.status with
  | Ok () -> None
  | Error f ->
    let tail = if r.stderr_tail = "" then "" else "\n" ^ r.stderr_tail in
    Some
      (match f with
      | Timeout { wall_ms; escalated } ->
        Diag.errorf Diag.Exec_timeout
          "%s exceeded its %.0f ms wall-clock deadline and was killed (SIGTERM%s)%s" what
          wall_ms
          (if escalated then ", escalated to SIGKILL" else "")
          tail
      | Crashed { signal } -> Diag.errorf Diag.Exec_crashed "%s crashed with %s%s" what signal tail
      | Limit { what = lim; signal } ->
        Diag.errorf Diag.Exec_limit "%s exceeded a resource limit: %s (%s)%s" what lim signal
          tail
      | Nonzero_exit { code } -> Diag.errorf Diag.Exec_failed "%s exited with %d%s" what code tail
      | Spawn_failed { reason } -> Diag.errorf Diag.Exec_failed "%s: %s%s" what reason tail)

(* {1 Fork-server of a pinned plan}

   [run] spawns and execs per run; a pinned subprocess plan instead
   keeps one fork-server (the artifact's own [main], see
   forkserver_runtime.c) that forks a fresh run-child per run.  The
   rlimits, the watchdog and the classification are those of [run];
   only the exec and the files are gone.  The [exec.*] chaos
   misbehaviours exist only here: the run-child carries them out. *)
module Forkserver = struct
  (* Mirrors forkserver_runtime.c. *)
  let magic = 0x4b465a34L (* "KFZ4" *)
  let request_words = 8
  let reply_words = 6

  (* {1 Stubs (kfuse_exec_stubs.c)} *)

  external plane_write : Unix.file_descr -> int -> float array -> unit = "kfuse_plane_write"
  external plane_read : Unix.file_descr -> int -> float array -> unit = "kfuse_plane_read"
  external send_all : Unix.file_descr -> bytes -> unit = "kfuse_send_all"
  external ocaml_signal : int -> int = "kfuse_ocaml_signal"

  let spawn_count = Atomic.make 0
  let spawns () = Atomic.get spawn_count

  type server = { child : Child.t; sock : Unix.file_descr }

  type t = {
    artifact : string;
    bytes : int;
    lock : Mutex.t;
    mutable fds : (Unix.file_descr * Unix.file_descr) option;  (* planes, stderr *)
    mutable server : server option;
    mutable released : bool;
    mutable keep_alive_ms : float;
  }

  let create ~artifact ~bytes =
    {
      artifact;
      bytes;
      lock = Mutex.create ();
      fds = None;
      server = None;
      released = false;
      keep_alive_ms = 0.;
    }

  let set_keep_alive t ms =
    if Float.is_nan ms || ms < 0. then invalid_arg "Forkserver.set_keep_alive: negative wait";
    t.keep_alive_ms <- ms

  let exclusive t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
    if t.released then invalid_arg "Forkserver: already released";
    f ()

  (* The planes memfd, sealed at the size the artifact expects, and the
     stderr memfd: made on first use, kept across server restarts. *)
  let fds t =
    match t.fds with
    | Some p -> p
    | None ->
      let planes = memfd "kfuse-planes" t.bytes true in
      let err =
        try memfd "kfuse-stderr" 0 false
        with e ->
          Unix.close planes;
          raise e
      in
      t.fds <- Some (planes, err);
      (planes, err)

  let store t ~offset a = plane_write (fst (fds t)) offset a
  let load t ~offset a = plane_read (fst (fds t)) offset a
  let stderr_tail t = try tail_of_fd (snd (fds t)) with Unix.Unix_error _ -> ""

  let pid t = Option.map (fun s -> Child.pid s.child) t.server

  let start t =
    let planes, err = fds t in
    let mine, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* The server gets the socket, the planes and stderr as fds 0-2, and
       makes itself a process group. *)
    let spawned = Child.start ~group:true (theirs, planes, err) [ t.artifact ] in
    Unix.close theirs;
    match spawned with
    | Error _ as e ->
      Unix.close mine;
      e
    | Ok child ->
      Atomic.incr spawn_count;
      let s = { child; sock = mine } in
      t.server <- Some s;
      Ok s

  let forget t s =
    t.server <- None;
    close_quietly s.sock

  (* Kill the server's process group (itself and any run-child it left
     behind) and reap it. *)
  let drop t s =
    forget t s;
    Child.terminate ~grace_ms:0. s.child

  (* A server that exited since the last run (its idle timeout) is reaped
     here, before the next request is written to it. *)
  let reap_if_exited t =
    match t.server with Some s when Child.poll s.child <> None -> forget t s | _ -> ()

  (* Fault decisions happen here, in the caller: the Faults registry
     holds a mutex, and the run-child only carries them out. *)
  let draw_misbehave () =
    if Faults.fires "exec.crash" then Fault_crash
    else if Faults.fires "exec.hang" then Fault_hang
    else if Faults.fires "exec.oom" then Fault_oom
    else No_fault

  let misbehave_code = function
    | No_fault -> 0
    | Fault_crash -> 1
    | Fault_hang -> 2
    | Fault_oom -> 3

  let request ~wall ~(limits : limits) ~misbehave ~keep_alive_ms =
    let b = Bytes.make (8 * request_words) '\000' in
    let set i v = Bytes.set_int64_ne b (8 * i) (Int64.of_int v) in
    let us ms = int_of_float (ms *. 1000.) in
    Bytes.set_int64_ne b 0 magic;
    set 1 (match wall with None -> -1 | Some w -> us w);
    set 2 (us default_grace_ms);
    set 3 (limit_value limits.cpu_s);
    set 4 (limit_value limits.mem_bytes);
    set 5 (limit_value limits.fsize_bytes);
    set 6 (misbehave_code misbehave);
    set 7 (if Float.is_finite keep_alive_ms then us keep_alive_ms else -1);
    b

  let gone_errors = [ Unix.EPIPE; Unix.ECONNRESET; Unix.ENOTCONN ]

  (* Send one request and wait for its reply.  [backstop_s] bounds the
     wait (0 = none): past it the server itself is wedged. *)
  let exchange s req ~backstop_s =
    match send_all s.sock req with
    | exception Unix.Unix_error (e, _, _) when List.mem e gone_errors -> `Gone
    | () -> (
      Unix.setsockopt_float s.sock Unix.SO_RCVTIMEO backstop_s;
      let len = 8 * reply_words in
      let buf = Bytes.create len in
      let rec fill off =
        if off = len then `Reply buf
        else
          match Unix.read s.sock buf off (len - off) with
          | 0 -> `Gone
          | n -> fill (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Overdue
          | exception Unix.Unix_error (e, _, _) when List.mem e gone_errors -> `Gone
      in
      fill 0)

  let word b i = Int64.to_int (Bytes.get_int64_ne b (8 * i))

  (* The run-child reply, classified exactly as a supervised spawn. *)
  let classify t ~limits ~misbehave rep =
    let stderr_tail = stderr_tail t in
    let wall_ms = float_of_int (word rep 4) /. 1e6 in
    let status =
      match word rep 0 with
      | 0 -> Ok (Unix.WEXITED (word rep 1))
      | 1 -> Ok (Unix.WSIGNALED (ocaml_signal (word rep 1)))
      | _ -> Error (Spawn_failed { reason = "the fork-server could not start the run" })
    in
    let status =
      Result.bind status
        (classify ~limits ~misbehave ~watchdog_fired:(word rep 2 <> 0)
           ~escalated:(word rep 3 <> 0) ~wall:wall_ms)
    in
    { status; wall_ms; stderr_tail }

  (* Past the server's own SIGTERM -> SIGKILL schedule, plus slack for a
     loaded host: only a wedged server misses it. *)
  let backstop_slack_ms = 1_000.

  let run t ~deadline ~(limits : limits) =
    let wall = wall_budget ~deadline ~limits in
    match wall with
    | Some w when w <= 0. -> expired_run
    | _ ->
      let misbehave = draw_misbehave () in
      let req = request ~wall ~limits ~misbehave ~keep_alive_ms:t.keep_alive_ms in
      let backstop_s =
        match wall with
        | None -> 0.
        | Some w -> (w +. default_grace_ms +. backstop_slack_ms) /. 1000.
      in
      reap_if_exited t;
      let rec attempt ~resend =
        match match t.server with Some s -> Ok s | None -> start t with
        | Error reason -> spawn_failed reason
        | Ok s -> (
          match exchange s req ~backstop_s with
          | `Reply rep -> classify t ~limits ~misbehave rep
          | `Overdue ->
            ignore (drop t s);
            let wall_ms = Option.value ~default:0. wall in
            { status = Error (Timeout { wall_ms; escalated = true }); wall_ms;
              stderr_tail = "" }
          | `Gone -> (
            match drop t s with
            | Unix.WEXITED 0 when resend ->
              (* It timed out idle just as the request went out: the run
                 never started, so it is sent once more to a fresh
                 server. *)
              attempt ~resend:false
            | st ->
              let how =
                match st with
                | Unix.WEXITED c -> Printf.sprintf "exited with %d" c
                | Unix.WSIGNALED sg | Unix.WSTOPPED sg -> "killed by " ^ signal_name sg
              in
              { (spawn_failed ("the plan's fork-server died mid-run (" ^ how ^ ")")) with
                stderr_tail = stderr_tail t }))
      in
      attempt ~resend:true

  (* Closing the socket is the release signal: an idle server sees EOF and
     exits 0 at once.  Its group is killed only if it has not gone within
     a second. *)
  let release t =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
    if not t.released then begin
      t.released <- true;
      Option.iter
        (fun s ->
          forget t s;
          ignore (Child.wait ~wall_ms:1_000. ~grace_ms:0. s.child))
        t.server;
      Option.iter (fun (planes, err) -> close_quietly planes; close_quietly err) t.fds;
      t.fds <- None
    end
end



(* {1 Crash forensics} *)

(* The artifact mirrors the fuzz-corpus file format ('#' header comments
   the DSL lexer skips, then the unparsed pipeline), so `kfusec fuzz
   --corpus <dir>` can replay and shrink a production crash.  Reusing
   Fuzz.Corpus directly would invert the dependency arrow (kfuse_fuzz
   depends on kfuse_exec), so the few header lines are written here. *)
let save_crash_artifact ~dir ?seed ~toolchain ~diag (p : Pipeline.t) =
  match Kfuse_dsl.Unparse.pipeline p with
  | Error reason -> Error reason
  | Ok text ->
    let rec mkdirs d =
      if not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        try Sys.mkdir d 0o755 with Sys_error _ -> ()
      end
    in
    mkdirs dir;
    let name = Printf.sprintf "%s.pipe" (String.sub (Fingerprint.structural p) 0 16) in
    let path = Filename.concat dir name in
    if Sys.file_exists path then Ok path
    else begin
      let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s in
      let clip n s = if String.length s <= n then s else String.sub s 0 n ^ " [...]" in
      let detail =
        clip 600 (one_line (Diag.to_string diag)) ^ " | toolchain: " ^ one_line toolchain
      in
      match
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
            output_string oc "# kfuse-fuzz corpus entry\n";
            (match seed with
            | Some s -> output_string oc (Printf.sprintf "# seed: %d\n" s)
            | None -> ());
            output_string oc "# oracle: exec-supervisor\n";
            output_string oc (Printf.sprintf "# detail: %s\n" detail);
            output_string oc text);
        Sys.rename tmp path
      with
      | () -> Ok path
      | exception Sys_error e -> Error e
    end

(* {1 Per-fingerprint circuit breaker} *)

module Breaker = struct
  type state = Closed | Open of { mutable since : float; diag : Diag.t }

  type entry = { mutable fails : int; mutable state : state }

  type t = {
    threshold : int;
    cooldown_ms : float;
    mutex : Mutex.t;
    entries : (string, entry) Hashtbl.t;
    mutable open_count : int;
  }

  type verdict = Allow | Probe | Quarantined of Diag.t

  let create ?(threshold = 3) ?(cooldown_ms = 60_000.) () =
    if threshold < 1 then invalid_arg "Breaker.create: threshold must be positive";
    {
      threshold;
      cooldown_ms;
      mutex = Mutex.create ();
      entries = Hashtbl.create 16;
      open_count = 0;
    }

  let threshold t = t.threshold

  let with_lock t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let entry t key =
    match Hashtbl.find_opt t.entries key with
    | Some e -> e
    | None ->
      let e = { fails = 0; state = Closed } in
      Hashtbl.replace t.entries key e;
      e

  let check t key =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None | Some { state = Closed; _ } -> Allow
        | Some { state = Open o; _ } ->
          let now = Unix.gettimeofday () in
          if t.cooldown_ms > 0. && (now -. o.since) *. 1000. >= t.cooldown_ms then begin
            (* Half-open: let one request probe; refresh [since] so
               concurrent requests keep getting the quarantine verdict
               instead of stampeding the broken plan. *)
            o.since <- now;
            Probe
          end
          else Quarantined o.diag)

  let record_failure t key diag =
    with_lock t (fun () ->
        let e = entry t key in
        e.fails <- e.fails + 1;
        match e.state with
        | Open o ->
          (* A failed half-open probe re-arms the cooldown. *)
          o.since <- Unix.gettimeofday ();
          false
        | Closed ->
          if e.fails >= t.threshold then begin
            e.state <- Open { since = Unix.gettimeofday (); diag };
            t.open_count <- t.open_count + 1;
            true
          end
          else false)

  let record_success t key =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None -> false
        | Some e ->
          e.fails <- 0;
          let was_open = match e.state with Open _ -> true | Closed -> false in
          e.state <- Closed;
          if was_open then t.open_count <- t.open_count - 1;
          was_open)

  let quarantined t = with_lock t (fun () -> t.open_count)

  let reset t key =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None -> ()
        | Some e ->
          (match e.state with Open _ -> t.open_count <- t.open_count - 1 | Closed -> ());
          Hashtbl.remove t.entries key)

  let reset_all t =
    with_lock t (fun () ->
        Hashtbl.reset t.entries;
        t.open_count <- 0)
end
