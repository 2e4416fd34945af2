(** Supervised, sandboxed execution of native artifacts.

    [kfused] runs {e generated machine code}; this module is what keeps
    the daemon alive when that code is wrong.  Every process it starts
    is a {!Child} — no shell, fds 0-2 only, one latched reap and one
    SIGTERM → SIGKILL watchdog — whether it is the compiler under
    {!run}, a pinned plan's {!Forkserver} or a shard of the sharded
    topology.  Every supervised execution is either a {!run} child
    (the compiler) or a run-child forked by a pinned plan's
    {!Forkserver} (every native plan execution), with:

    - [setrlimit] caps (CPU seconds, address space, output file size,
      soft = hard) applied in the child before the code runs, so a
      runaway kernel is stopped by the OS, not by luck;
    - a wall-clock watchdog fed from {!Kfuse_util.Deadline.remaining_ms}
      that sends SIGTERM at the deadline and escalates to SIGKILL after
      a short grace period;
    - exit-status classification into typed diagnostics: KF0905
      ({!Diag.Exec_timeout}), KF0906 ({!Diag.Exec_crashed}, with the
      signal name), KF0907 ({!Diag.Exec_limit});
    - a stderr tail capped at 4 KiB before it is embedded in a
      diagnostic, so pathological child output cannot balloon a reply
      over the 16 MiB wire-frame cap.

    Crash forensics ({!save_crash_artifact}) write the failing pipeline
    into a fuzz-corpus-compatible [.pipe] file, and a per-fingerprint
    circuit {!Breaker} lets the service quarantine plans that keep
    failing, degrading them to the interpreter.

    Chaos fault points (armed via [KFUSE_FAULTS], see
    {!Kfuse_util.Faults}) fire in a {!Forkserver}'s run-children only,
    never in a {!run} child or any other spawn: ["exec.crash"] makes the
    run-child die with SIGSEGV, ["exec.hang"] makes it sleep forever
    (the watchdog must reap it), ["exec.oom"] makes it exhaust a tiny
    private RLIMIT_AS and abort like the generated [kf_malloc] does.
    The fault decision is drawn by {!Forkserver.run} and carried to the
    run-child in the request. *)

module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Pipeline = Kfuse_ir.Pipeline

(** {1 Sandbox policy}

    How [kfused] runs native plans ([--exec-sandbox]).  Under both
    policies the circuit breaker and the service rlimits apply to every
    native execution.
    - {!Sandboxed} (default): every execution is a supervised subprocess
      with rlimits and the watchdog; in-process dlopen is never used,
      whatever mode a request asks for.  This is the one-shot path.
    - {!Dlopen_trusted}: the requested mode is honoured, and no request
      means auto (dlopen, falling back to a subprocess; see
      {!Native.prepare}).  This trusts codegen in-process and is the
      pinned-dlopen path streams want; subprocess executions are still
      supervised. *)
type policy = Sandboxed | Dlopen_trusted

val policy_to_string : policy -> string
(** ["on"], ["dlopen-trusted"]. *)

val policy_of_string : string -> policy option

(** {1 Resource limits} *)

type limits = {
  wall_ms : float option;  (** watchdog cap, even without a request deadline *)
  cpu_s : int option;  (** RLIMIT_CPU, seconds *)
  mem_bytes : int option;  (** RLIMIT_AS, bytes *)
  fsize_bytes : int option;  (** RLIMIT_FSIZE, bytes *)
}

val no_limits : limits
(** Everything unlimited: supervised spawning without a sandbox. *)

val default_limits : limits
(** The service defaults: 30 s wall, 60 s CPU, 2 GiB address space,
    256 MiB output file — generous for every pipeline in the app
    registry, fatal for a runaway kernel. *)

(** {1 Supervised runs} *)

(** Why a child did not exit 0. *)
type failure =
  | Timeout of { wall_ms : float; escalated : bool }
      (** watchdog killed it; [escalated] when SIGTERM was ignored and
          SIGKILL was needed *)
  | Crashed of { signal : string }  (** died on a crash signal, e.g. ["SIGSEGV"] *)
  | Limit of { what : string; signal : string }  (** hit an rlimit *)
  | Nonzero_exit of { code : int }
  | Spawn_failed of { reason : string }

type run = {
  status : (unit, failure) result;
  wall_ms : float;  (** observed wall time of the child, ms *)
  stderr_tail : string;  (** last ≤4 KiB of the child's stderr *)
}

val run : ?deadline:Deadline.t -> ?limits:limits -> argv:string list -> unit -> run
(** [run ~argv ()] spawns [argv] as a {!Child} (via [PATH] lookup, never
    a shell) and waits for it under the watchdog.  The effective wall
    cap is the minimum of [Deadline.remaining_ms deadline] and
    [limits.wall_ms]; when the deadline is already expired the child is
    not spawned at all and the result is a {!Timeout}.  SIGKILL follows
    SIGTERM after 500 ms.  stdin and stdout are [/dev/null]; stderr goes
    to a close-on-exec memfd, so no file is named, and comes back as a
    capped tail.  Spawn problems come back as {!Spawn_failed}. *)

val failure_diag : what:string -> run -> Diag.t option
(** [failure_diag ~what r] is [None] on success, otherwise the typed
    diagnostic for the failure — KF0905/KF0906/KF0907 for
    timeout/crash/limit, KF0904 for nonzero exits and spawn failures —
    with the capped stderr tail appended.  [what] names the subject
    (e.g. ["compiled plan /path/kf-....bin"]). *)

val signal_name : int -> string
(** OCaml signal number → conventional name (["SIGSEGV"], ...);
    [Printf]-rendered number for signals without one. *)

val stderr_tail_limit : int
(** 4096: the stderr capture cap, in bytes. *)

(** {1 Fork-server of a pinned plan}

    One fork-server per pinned {!Native.Subprocess} plan.  The server is
    the compiled artifact itself: its [main] (native ABI v4,
    [forkserver_runtime.c]) maps a memfd holding the plan's input,
    output and parameter planes, then serves run requests over a
    socketpair.  Each request forks a fresh run-child that sets the
    request's rlimits (soft = hard), runs the pipeline on the shared
    planes and exits.  The server watches it with the request's wall
    budget (SIGTERM, then SIGKILL after 500 ms) and replies with the raw
    wait status, which is classified exactly like a {!run} child and
    turned into a diagnostic by {!failure_diag}.  So every run is still
    one fresh, resource-capped process, but no run pays for an exec, a
    file or a per-pixel copy.

    Lifecycle:
    - the server is a {!Child}, started by the first {!Forkserver.run}
      and counted by {!Forkserver.spawns};
    - after each reply it waits for the next request only for the
      plan's keep-alive ({!Forkserver.set_keep_alive}, default 0: it
      exits as soon as the run is answered), then exits 0 on its own,
      and the next run starts a new one; a request that races the idle
      exit is sent once more, never reported as a failure;
    - a server that dies mid-run is reaped, the run fails typed
      ([KF0904]) and the next run starts a new one;
    - a reply overdue past the wall budget + grace + 1 s means the
      server itself is wedged: its process group is killed and the run
      is a {!Timeout};
    - {!Forkserver.release} closes the socket, the server exits on EOF,
      and it is reaped (its group killed if it has not gone within a
      second).

    The caller's ends of the socket and memfds are close-on-exec, so a
    child spawned meanwhile (a compiler run, another plan's server)
    never holds them.  The caller never maps the planes: it moves them
    with [pwrite]/[pread] straight from and into float arrays, so they
    are not part of its resident set. *)
module Forkserver : sig
  type t
  (** The server of one plan: artifact, planes memfd and, while one is
      running, the server process. *)

  val create : artifact:string -> bytes:int -> t
  (** No process or descriptor yet: both are made on first use.  [bytes]
      is the planes memfd size the artifact expects. *)

  val exclusive : t -> (unit -> 'a) -> 'a
  (** Run [f] holding the plan's mutex: a store, the runs and the loads of
      one execution are never interleaved with another's.
      @raise Invalid_argument after {!release}. *)

  val set_keep_alive : t -> float -> unit
  (** How long (ms) the server waits after a reply for the next request
      before exiting; [infinity] waits until the next request or
      {!release}.  Carried by each request, so it applies from the next
      one on.  Default 0.
      @raise Invalid_argument on a negative or NaN wait. *)

  val store : t -> offset:int -> float array -> unit
  (** [pwrite] the array into the planes memfd at a byte offset. *)

  val load : t -> offset:int -> float array -> unit
  (** [pread] the planes memfd at a byte offset into the array. *)

  val run : t -> deadline:Deadline.t -> limits:limits -> run
  (** One run in a fresh run-child, under the effective wall budget of
      [deadline] and [limits.wall_ms] (an already-spent budget starts
      nothing and is a {!Timeout}) and with [limits]'s rlimits.  The
      [exec.crash|hang|oom] chaos decision is drawn here, and only here,
      and carried in the request.  Call inside {!exclusive}.  Never
      raises. *)

  val pid : t -> int option
  (** The server's pid while one is running (or has exited unreaped). *)

  val release : t -> unit
  (** Stop and reap the server and close the memfds.  Idempotent. *)

  val spawns : unit -> int
  (** Process-wide count of servers started since startup. *)
end

(** {1 Child processes}

    Every process this module starts: the {!run} child, a
    {!Forkserver}'s server and, through {!Child.spawn}, a shard of the
    sharded [kfused] topology, a server process that must {e keep}
    running.  A child is spawned by a C stub (no [Unix.fork] once
    domains exist) with exactly fds 0-2: every descriptor this module
    opens is close-on-exec, and the stub closes any other before the
    exec.  Its lifetime can be split across monitor ticks: non-blocking
    liveness polls, best-effort signals, and one bounded
    SIGTERM → SIGKILL → reap wait, which is also {!run}'s watchdog and
    the fork-server's backstop.  Thread-safe: the first successful reap
    latches the exit status for every later caller. *)
module Child : sig
  type t

  val spawn : ?log:string -> argv:string list -> unit -> (t, string) result
  (** Fork and exec [argv] (via [PATH], never a shell) and return
      immediately.  stdin is [/dev/null]; stdout and stderr both go to
      [log], opened [O_APPEND] so restart logs accumulate, or to
      [/dev/null].  No rlimits and no chaos: a supervised server is made
      to misbehave through its own fault points, not the spawn. *)

  val pid : t -> int

  val poll : t -> Unix.process_status option
  (** Non-blocking: [None] while running, the latched exit status once
      gone.  Never raises or blocks; never returns [None] after having
      returned [Some]. *)

  val running : t -> bool

  val signal : t -> int -> unit
  (** Best-effort [kill]: a no-op once the child has been reaped (so a
      recycled pid is never signalled) or when the kernel refuses.  A
      fork-server's signals go to its whole process group. *)

  val kill : t -> unit
  (** [signal t Sys.sigkill]. *)

  val terminate : ?grace_ms:float -> t -> Unix.process_status
  (** The watchdog wait with its deadline already passed: SIGTERM at
      once, SIGKILL [grace_ms] (default 2000) later if the child is still
      there, then reap.  Idempotent; returns the (possibly already
      latched) status. *)
end

(** {1 Crash forensics} *)

val save_crash_artifact :
  dir:string ->
  ?seed:int ->
  toolchain:string ->
  diag:Diag.t ->
  Pipeline.t ->
  (string, string) result
(** Persist the failing pipeline as a fuzz-corpus-compatible [.pipe]
    file under [dir]: '#' header comments (seed, oracle
    ["exec-supervisor"], a single-line detail carrying the diagnostic
    and toolchain id) followed by the unparsed DSL source, named by the
    16-char structural-fingerprint prefix.  Idempotent per pipeline;
    returns the path.  [kfusec fuzz --corpus dir] replays and shrinks
    these like any fuzzer finding. *)

(** {1 Per-fingerprint circuit breaker}

    Consulted by the service before running a plan natively.  A plan
    that fails {!val:Breaker.threshold} consecutive times trips to
    [Open] (quarantined); after [cooldown_ms] one request is let through
    as a half-open {!Breaker.Probe} — success closes the breaker,
    failure re-arms the cooldown.  Thread-safe. *)
module Breaker : sig
  type t

  (** What the service should do with a fingerprint. *)
  type verdict =
    | Allow  (** closed: run natively *)
    | Probe  (** half-open: run natively; the outcome decides the state *)
    | Quarantined of Diag.t
        (** open: skip native, degrade to the interpreter; the payload
            is the diagnostic that tripped the breaker *)

  val create : ?threshold:int -> ?cooldown_ms:float -> unit -> t
  (** [threshold] (default 3) consecutive failures trip the breaker;
      [cooldown_ms] (default 60 000) is the quarantine period before a
      half-open probe ([<= 0.] disables probing entirely). *)

  val threshold : t -> int

  val check : t -> string -> verdict

  val record_failure : t -> string -> Diag.t -> bool
  (** Count a native failure for a fingerprint; [true] exactly when this
      call tripped the breaker open (the caller bumps the
      [quarantined_plans] gauge on that edge). *)

  val record_success : t -> string -> bool
  (** Reset the failure count; [true] exactly when this call closed an
      open breaker (successful half-open probe). *)

  val quarantined : t -> int
  (** Number of currently open (quarantined) fingerprints. *)

  val reset : t -> string -> unit
  val reset_all : t -> unit
end
