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

let read_tail ?(limit = stderr_tail_limit) path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let n = in_channel_length ic in
        let keep = min n limit in
        seek_in ic (n - keep);
        let s = really_input_string ic keep in
        if keep < n then "[... truncated ...]\n" ^ s else s)

(* {1 Chaos misbehaviour (exec.* fault points)} *)

type misbehave = No_fault | Fault_crash | Fault_hang | Fault_oom

(* {1 Spawn + watchdog} *)

(* The whole fork/dup2/setrlimit/exec sequence lives in a C stub
   ([kfuse_spawn] in kfuse_exec_stubs.c): OCaml 5 forbids [Unix.fork]
   once other domains exist — and both kfused's fusion pool and the
   test runner create domains — while a C-side fork whose child runs
   only async-signal-safe libc calls and never re-enters the OCaml
   runtime is fine.  The chaos misbehaviours execute in the child, so
   they are implemented in the stub too ([Fault_crash] = die with
   SIGSEGV, [Fault_hang] = pause forever, [Fault_oom] = exhaust a
   64 MiB private RLIMIT_AS and abort() the way the generated
   kf_malloc does); the *decision* of which one fires is still drawn
   in the parent (see [run]), because the Faults registry holds a
   mutex.  Limits are [RLIMIT_CPU (s); RLIMIT_AS; RLIMIT_FSIZE], -1
   for unlimited.  Returns the child pid; raises [Failure] when the
   fork itself fails. *)
external raw_spawn :
  string array ->
  Unix.file_descr * Unix.file_descr * Unix.file_descr ->
  int array ->
  int ->
  int = "kfuse_spawn"

let misbehave_code = function
  | No_fault -> 0
  | Fault_crash -> 1
  | Fault_hang -> 2
  | Fault_oom -> 3

let spawn ~limits ~misbehave ~stdout_fd ~stderr_fd ~devnull argv =
  match argv with
  | [] -> Error "empty argv"
  | _ -> (
    let lim = function None -> -1 | Some v -> v in
    let lims = [| lim limits.cpu_s; lim limits.mem_bytes; lim limits.fsize_bytes |] in
    match
      raw_spawn (Array.of_list argv)
        (devnull, stdout_fd, stderr_fd)
        lims (misbehave_code misbehave)
    with
    | pid -> Ok pid
    | exception Failure reason -> Error reason)

(* Wait for [pid], killing it when [wall_ms] elapses: SIGTERM first,
   SIGKILL after [grace_ms] if it refuses to die.  Returns the status,
   the observed wall time, and whether the watchdog fired/escalated. *)
let wait_with_watchdog ~pid ~wall_ms ~grace_ms =
  let t0 = Unix.gettimeofday () in
  match wall_ms with
  | None ->
    let rec wait () =
      match Unix.waitpid [] pid with
      | _, st -> st
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let st = wait () in
    (st, (Unix.gettimeofday () -. t0) *. 1000., false, false)
  | Some wall ->
    let kill_at = t0 +. (wall /. 1000.) in
    let term_at = ref None in
    let escalated = ref false in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        let now = Unix.gettimeofday () in
        (match !term_at with
        | None when now >= kill_at ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          term_at := Some now
        | Some t when (not !escalated) && now -. t >= grace_ms /. 1000. ->
          escalated := true;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ());
        Unix.sleepf 0.002;
        poll ()
      | _, st -> st
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
    in
    let st = poll () in
    (st, (Unix.gettimeofday () -. t0) *. 1000., !term_at <> None, !escalated)

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

let run ?(deadline = Deadline.none) ?(limits = no_limits) ?(grace_ms = 500.)
    ?(fault_injection = true) ?stdout_path ?stderr_path ~argv () =
  let wall_ms =
    match (Deadline.remaining_ms deadline, limits.wall_ms) with
    | None, w -> w
    | Some r, None -> Some r
    | Some r, Some w -> Some (Float.min r w)
  in
  match wall_ms with
  | Some w when w <= 0. ->
    (* The deadline is already gone: don't even spawn. *)
    { status = Error (Timeout { wall_ms = 0.; escalated = false }); wall_ms = 0.; stderr_tail = "" }
  | _ ->
    (* Fault decisions happen in the parent: the Faults registry holds a
       mutex, which must not be touched between fork and exec. *)
    let misbehave =
      if not fault_injection then No_fault
      else if Faults.fires "exec.crash" then Fault_crash
      else if Faults.fires "exec.hang" then Fault_hang
      else if Faults.fires "exec.oom" then Fault_oom
      else No_fault
    in
    let own_stderr = stderr_path = None in
    let err_path =
      match stderr_path with Some p -> p | None -> Filename.temp_file "kfuse-sup" ".err"
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let stdout_fd =
      match stdout_path with
      | None -> devnull
      | Some p -> Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
    in
    let stderr_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close devnull with Unix.Unix_error _ -> ());
        (if stdout_fd != devnull then try Unix.close stdout_fd with Unix.Unix_error _ -> ());
        (try Unix.close stderr_fd with Unix.Unix_error _ -> ());
        if own_stderr then try Sys.remove err_path with Sys_error _ -> ())
      (fun () ->
        match spawn ~limits ~misbehave ~stdout_fd ~stderr_fd ~devnull argv with
        | Error reason ->
          { status = Error (Spawn_failed { reason }); wall_ms = 0.; stderr_tail = "" }
        | Ok pid ->
          let status, wall, watchdog_fired, escalated =
            wait_with_watchdog ~pid ~wall_ms ~grace_ms
          in
          let status = classify ~limits ~misbehave ~watchdog_fired ~escalated ~wall status in
          { status; wall_ms = wall; stderr_tail = read_tail err_path })

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

(* {1 Long-lived supervised children} *)

(* [run] above is spawn-and-wait: right for a native plan execution that
   is supposed to finish.  A shard of the sharded kfused topology is the
   opposite — a server process that is supposed to *keep running* — so
   the fleet supervisor needs the same C-stub spawn (no [Unix.fork] once
   domains exist) but with ownership of the child's lifetime split
   across many monitor ticks: non-blocking liveness polls, best-effort
   signals, and a bounded terminate-then-escalate teardown. *)
module Child = struct
  type t = {
    pid : int;
    mutable reaped : Unix.process_status option;
    (* waitpid races: the monitor thread and the drain path may both
       poll; the first reap latches the status for everyone else. *)
    lock : Mutex.t;
  }

  let pid t = t.pid

  let open_sink ~append = function
    | None -> None
    | Some path ->
      let flags =
        Unix.O_WRONLY :: Unix.O_CREAT :: (if append then [ Unix.O_APPEND ] else [ Unix.O_TRUNC ])
      in
      Some (Unix.openfile path flags 0o600)

  let spawn ?(limits = no_limits) ?stdout_path ?stderr_path ?(append = true) ~argv () =
    match argv with
    | [] -> Error "empty argv"
    | _ -> (
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let close_all fds = List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds in
      match
        let stdout_fd = open_sink ~append stdout_path in
        let stderr_fd =
          (* stderr may share stdout's sink: one shard log per shard. *)
          if stderr_path = stdout_path then stdout_fd else open_sink ~append stderr_path
        in
        (stdout_fd, stderr_fd)
      with
      | exception Unix.Unix_error (e, _, p) ->
        close_all [ devnull ];
        Error (Printf.sprintf "cannot open %s: %s" p (Unix.error_message e))
      | stdout_fd, stderr_fd -> (
        let out = Option.value ~default:devnull stdout_fd in
        let err = Option.value ~default:out stderr_fd in
        let owned =
          devnull
          :: (Option.to_list stdout_fd
             @ if stderr_fd <> None && stderr_fd <> stdout_fd then Option.to_list stderr_fd else [])
        in
        match spawn ~limits ~misbehave:No_fault ~stdout_fd:out ~stderr_fd:err ~devnull argv with
        | Error _ as e ->
          close_all owned;
          e
        | Ok pid ->
          close_all owned;
          Ok { pid; reaped = None; lock = Mutex.create () }))

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

  let signal t s = if poll t = None then try Unix.kill t.pid s with Unix.Unix_error _ -> ()

  let kill t = signal t Sys.sigkill

  (* SIGTERM, wait up to [grace_ms] for a clean exit, SIGKILL past it,
     then reap.  Idempotent; returns the (possibly latched) status. *)
  let terminate ?(grace_ms = 2_000.) t =
    signal t Sys.sigterm;
    let deadline = Unix.gettimeofday () +. (grace_ms /. 1000.) in
    let rec wait_grace () =
      match poll t with
      | Some st -> st
      | None ->
        if Unix.gettimeofday () >= deadline then begin
          kill t;
          let rec reap () =
            match Unix.waitpid [] t.pid with
            | _, st ->
              Mutex.lock t.lock;
              t.reaped <- Some st;
              Mutex.unlock t.lock;
              st
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
          in
          reap ()
        end
        else begin
          Unix.sleepf 0.005;
          wait_grace ()
        end
    in
    wait_grace ()
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
