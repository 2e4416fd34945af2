(** Supervised, sandboxed execution of native artifacts.

    PR 6 taught [kfused] to run {e generated machine code}; this module
    is what keeps the daemon alive when that code is wrong.  Every
    supervised execution is a [fork]/[exec] child — no shell — with:

    - [setrlimit] caps (CPU seconds, address space, output file size)
      applied between fork and exec via a C stub, so a runaway kernel is
      stopped by the OS, not by luck;
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
    {!Kfuse_util.Faults}): ["exec.crash"] makes the child die with
    SIGSEGV, ["exec.hang"] makes it sleep forever (the watchdog must
    reap it), ["exec.oom"] makes it exhaust a tiny private RLIMIT_AS and
    abort like the generated [kf_malloc] does.  The fault decision is
    drawn in the parent, before fork. *)

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

val run :
  ?deadline:Deadline.t ->
  ?limits:limits ->
  ?grace_ms:float ->
  ?fault_injection:bool ->
  ?stdout_path:string ->
  ?stderr_path:string ->
  argv:string list ->
  unit ->
  run
(** [run ~argv ()] forks and execs [argv] (via [PATH] lookup, never a
    shell) and waits for it under the watchdog.  The effective wall cap
    is the minimum of [Deadline.remaining_ms deadline] and
    [limits.wall_ms]; when the deadline is already expired the child is
    not spawned at all and the result is a {!Timeout}.  [grace_ms]
    (default 500) is the SIGTERM→SIGKILL escalation delay.  stdout goes
    to [stdout_path] (default [/dev/null]); stderr is captured to
    [stderr_path] (default: a private temp file, removed afterwards) and
    returned as a capped tail.  [fault_injection] (default [true])
    enables the [exec.*] chaos points — the compile path disables it so
    an armed ["exec.crash"] hits executions, not compiler invocations.
    Never raises: spawn problems come back as {!Spawn_failed}. *)

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

val read_tail : ?limit:int -> string -> string
(** Last [limit] (default {!stderr_tail_limit}) bytes of a file, with a
    truncation marker when shortened; [""] when unreadable. *)

(** {1 Long-lived supervised children}

    {!run} is spawn-and-wait; a shard of the sharded [kfused] topology
    is a server process that must {e keep} running.  {!Child} exposes
    the same no-[Unix.fork] C-stub spawn with the lifetime split across
    monitor ticks: non-blocking liveness polls, best-effort signals, and
    a bounded SIGTERM→SIGKILL teardown.  Thread-safe: the first
    successful reap latches the exit status for every later caller. *)
module Child : sig
  type t

  val spawn :
    ?limits:limits ->
    ?stdout_path:string ->
    ?stderr_path:string ->
    ?append:bool ->
    argv:string list ->
    unit ->
    (t, string) result
  (** Fork and exec [argv] (via [PATH], never a shell) and return
      immediately.  stdin is [/dev/null]; stdout/stderr go to the named
      paths (opened [O_APPEND] by default so restart logs accumulate;
      [~append:false] truncates), both defaulting to [/dev/null] —
      [stderr_path] equal to [stdout_path] shares one fd.  [limits]
      (default {!no_limits}) applies the usual rlimits between fork and
      exec.  Chaos misbehaviours never fire here: a supervised server is
      made to misbehave through its own fault points, not the spawn. *)

  val pid : t -> int

  val poll : t -> Unix.process_status option
  (** Non-blocking: [None] while running, the latched exit status once
      gone.  Never raises or blocks; never returns [None] after having
      returned [Some]. *)

  val running : t -> bool

  val signal : t -> int -> unit
  (** Best-effort [kill]: a no-op once the child has been reaped (so a
      recycled pid is never signalled) or when the kernel refuses. *)

  val kill : t -> unit
  (** [signal t Sys.sigkill]. *)

  val terminate : ?grace_ms:float -> t -> Unix.process_status
  (** SIGTERM, wait up to [grace_ms] (default 2000) for a clean exit,
      SIGKILL past it, then reap.  Idempotent; returns the (possibly
      already latched) status. *)
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
