(** The [kfused] server: fusion-as-a-service over a Unix-domain socket,
    built to stay correct under overload, slow peers, and kill signals.

    The server is a request handler behind a {!Frontend}, the connection
    front-end it shares with the shard {!Router}.  The front-end accepts
    each connection into a bounded worker model: [max_conns] long-lived
    worker threads serve connections, and up to [queue] more wait in a
    bounded admission queue.  When both are full the connection is
    {e shed} with a typed [KF0803 overloaded] reply instead of queueing
    forever.  All workers share one {!Kfuse_cache.Plan_cache} and one
    {!Kfuse_util.Pool}: the pool is batch-exclusive, so concurrent plans
    degrade gracefully to serial execution inside their own thread
    rather than queueing behind each other.  Stream and lazy sessions
    live in two {!Session_table}s with one shared lifecycle.

    Every request runs under a wall-clock deadline
    ([request_timeout_ms], also armed as [SO_RCVTIMEO]/[SO_SNDTIMEO] on
    the connection): a fusion search is budget-capped to the remaining
    deadline, and a slow-loris or vanished peer frees its worker slot
    with a [KF0804 request timeout] reply — counted as
    [requests_timed_out].

    Robustness: a failed request produces an error {e response}, not a
    dead server; a connection failing mid-write is dropped; a response
    that would overrun {!Protocol.max_frame} becomes a typed [KF0801]
    error reply.  Chaos fault points ({!Kfuse_util.Faults.hit}) let
    tests and CI prove each degradation: ["service.accept"] drops one
    connection ([connections_dropped]), ["service.shed"] forces an
    admission shed ([requests_shed]), ["proto.torn_frame"] /
    ["proto.slow_write"] / ["proto.drop_reply"] corrupt, delay, or
    swallow one reply without wedging the worker, and ["exec.crash"] /
    ["exec.hang"] / ["exec.oom"] make a supervised native execution
    misbehave.

    Native execution is sandboxed by default
    ([exec_sandbox = Supervisor.Sandboxed]): generated code runs as a
    supervised fork/exec child under rlimits and a deadline watchdog
    ({!Kfuse_exec.Supervisor}), so a [fuse_exec] whose generated code
    segfaults, loops, or exhausts memory yields a typed
    [KF0905]/[KF0906]/[KF0907] reply — never a dead or wedged daemon.
    Each such failure writes a crash artifact (a fuzz-corpus-compatible
    [.pipe] file) under [crash_dir] and strikes a per-fingerprint
    circuit breaker: after [breaker_threshold] consecutive failures the
    plan is quarantined ([quarantined_plans] gauge) and subsequent
    requests degrade to the {!Kfuse_ir.Eval} interpreter
    (["mode" = "interpreter"] plus a warning in the reply) until a
    half-open probe after [breaker_cooldown_ms] succeeds. *)

module Diag := Kfuse_util.Diag
module Supervisor := Kfuse_exec.Supervisor

type t

(** [start ~socket ~cache ~pool ?budget_ms ?max_conns ?queue
    ?request_timeout_ms ?drain_timeout_ms ()] binds [socket] (a stale
    socket file left by a dead server is replaced; a live one is
    refused), spawns the worker pool and the accept thread, and
    returns.

    [budget_ms] is the default per-request fusion budget; a request's
    own ["budget_ms"] overrides it, and both are capped by the
    remaining request deadline.  [max_conns] (default 16, >= 1) bounds
    concurrently served connections; [queue] (default 64, >= 0) bounds
    the admission queue beyond which connections are shed with
    [KF0803].  [request_timeout_ms] (default 30s; <= 0 disables) is the
    per-request wall-clock deadline and socket timeout.
    [drain_timeout_ms] (default 5s) bounds how long {!wait} lets
    in-flight handlers finish before forcibly shutting their
    connections down.

    [exec_sandbox] (default {!Supervisor.Sandboxed}) selects how
    [fuse_exec] and streams run generated code.  It is the one place
    the backend is chosen: {!Supervisor.Sandboxed} runs every execution
    as a supervised subprocess whatever ["exec_mode"] a request names;
    {!Supervisor.Dlopen_trusted} passes the requested mode on, and no
    request means {!Kfuse_exec.Native.prepare}'s auto choice (dlopen,
    falling back to a subprocess).  Under both, [exec_limits] (default
    {!Supervisor.default_limits}) are the rlimits for every subprocess
    child, and the circuit breaker guards every native execution.  [crash_dir] (default [crash-corpus] under
    {!Kfuse_cache.Plan_cache.default_dir}) receives crash artifacts.
    [breaker_threshold] (default 3, >= 1) consecutive supervised
    failures quarantine a plan fingerprint; [breaker_cooldown_ms]
    (default 60s) is the quarantine period before a half-open probe.

    Streaming ([stream_open]/[stream_push]/[stream_close], see
    {!Protocol}): [max_streams] (default 64, >= 1) bounds concurrently
    open sessions — an open beyond it is shed with [KF0803].
    [stream_queue] (default 4, >= 1) bounds each session's in-flight
    pushes — a push beyond it is shed with [KF0805] {e before} touching
    the session's temporal state, so the client can retry it verbatim.
    [stream_idle_ms] (default 60s; <= 0 disables) is the idle-expiry
    horizon: sessions untouched for longer are reaped lazily (on the
    next session or stats op), releasing their pinned native plan; a
    session an operation still holds is never reaped.  Lazy sessions
    ([lazy_open] and friends) share the [max_streams] bound (counted
    separately) and the idle horizon.
    Each stream compiles its plan exactly once at [stream_open] and
    reuses the pinned artifact for every frame
    ({!Kfuse_exec.Native.prepare}/{!Kfuse_exec.Native.run_plan});
    per-frame failures fall back to the interpreter on the same
    bindings, so a stream's pixel history stays bit-exact across
    backend changes. *)
val start :
  socket:string ->
  cache:Kfuse_cache.Plan_cache.t ->
  pool:Kfuse_util.Pool.t ->
  ?budget_ms:float ->
  ?max_conns:int ->
  ?queue:int ->
  ?request_timeout_ms:float ->
  ?drain_timeout_ms:float ->
  ?exec_sandbox:Supervisor.policy ->
  ?exec_limits:Supervisor.limits ->
  ?crash_dir:string ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_ms:float ->
  ?max_streams:int ->
  ?stream_queue:int ->
  ?stream_idle_ms:float ->
  unit ->
  (t, Diag.t) result

(** [wait t] blocks until the server stops (a ["shutdown"] request,
    {!stop}, or {!signal_stop}), drains in-flight handlers up to the
    drain timeout — past it, their connections are forcibly shut down —
    then joins every worker thread (zero leaked handler threads) and
    removes the socket file. *)
val wait : t -> unit

(** [stop t] initiates shutdown and {!wait}s.  Idempotent. *)
val stop : t -> unit

(** [signal_stop t] requests shutdown without blocking.  It is a single
    atomic store — no locks, no allocation — so it is safe to call from
    an asynchronous signal handler; this is what [kfusec serve] installs
    for SIGTERM/SIGINT.  The thread blocked in {!wait} notices the
    request (within ~20ms), stops the accept loop, and performs the
    drain. *)
val signal_stop : t -> unit

(** [in_flight t] is the number of connections currently being served
    plus those waiting in the admission queue — 0 after a clean drain
    (exposed for the chaos harness's leak checks). *)
val in_flight : t -> int

val socket : t -> string
val cache : t -> Kfuse_cache.Plan_cache.t
val metrics : t -> Metrics.t

(** [load_pipeline f] resolves a fuse request to its pipeline exactly
    the way request handling does: a registry app by name (optionally
    re-instantiated at [size]), or parsed+elaborated DSL [source].
    Exposed so the sharded router maps a request to the {e same}
    pipeline — and hence the same rename-invariant fingerprint keyspace
    — as the shard that will serve it. *)
val load_pipeline :
  ?size:int * int -> Protocol.fuse_request -> (Kfuse_ir.Pipeline.t, Diag.t) result

(** [claim_socket path] prepares [path] for a fresh [bind]: absent is
    fine; an existing socket file is probed with a connect — no listener
    (stale leftover of a crashed server) is unlinked, a live listener is
    a [KF0802] refusal, a non-socket file is a [KF0101].  {!start} runs
    this itself for its own socket; it is exposed so the sharded
    topology can sweep a whole fleet's [shard-<i>.sock] files before
    respawning shards. *)
val claim_socket : string -> (unit, Diag.t) result
