(** Native compile-and-execute backend: fused plans that return pixels.

    Takes a pipeline (typically the [fused] result of
    {!Kfuse_fusion.Driver.run}), emits the C + OpenMP source via
    {!Kfuse_codegen.Lower_cpu}, compiles it with the host toolchain
    ({!Toolchain}), and runs it on concrete {!Kfuse_image.Image.t}
    inputs — real pixels out, directly comparable against the
    {!Kfuse_ir.Eval} interpreter.

    Two execution modes share one compile cache:

    - {!Dlopen}: build a shared object, load it in-process through a
      small C stub against the fixed entry point
      [void kfuse_entry(const double** ins, double** outs, const double* params)]
      (ABI v2, appended to the generated source).  Cheapest per call.
    - {!Subprocess}: build a standalone executable that is a
      fork-server ({!Supervisor.Forkserver}, ABI v4): started once per
      pinned plan, it maps a memfd holding the plan's float64 input,
      output and parameter planes and forks one fresh, rlimited
      run-child per execution.  The host copies planes in and out with
      [pwrite]/[pread] and never maps them.  A few milliseconds more
      than {!Dlopen} per call, but generated code never runs in the
      host process and every run can be capped and killed.

    There is one execution lifecycle: {!prepare} compiles (or reuses)
    and pins a {!plan}, {!run_plan} executes it, {!release} drops it.
    A one-shot {!run} is exactly that sequence.  When no mode is
    requested, {!prepare} tries {!Dlopen} and falls back to
    {!Subprocess} on a load failure; it is the only place that does.

    Artifacts are content-addressed in a cache directory: the key folds
    the pipeline's exact fingerprint ({!Kfuse_cache.Fingerprint.exact}),
    the mode, the tiling, the toolchain and the ABI version, so a cache
    hit skips the compiler entirely.  The generated source is kept next
    to each artifact for debugging; besides it and the artifact, a
    compile names only the compiler's [-o] output, renamed into place
    (the compiler's stderr goes to a memfd).

    The compiler invocation is a supervised {!Supervisor.run} child and
    every {!Subprocess} execution a supervised fork of the plan's server
    ({!Supervisor}) — no shell anywhere — so they can be killed on a
    deadline and, when [limits] are given, sandboxed with rlimits.  The
    [exec.*] chaos points fire in those run-children only, never in the
    compiler.

    Failures are typed: no toolchain is [KF0902]
    ({!Kfuse_util.Diag.Toolchain_missing}), a compiler rejection is
    [KF0903] ({!Kfuse_util.Diag.Compile_failed}, carrying the last
    4 KiB of the compiler's stderr; it counts in no {!compiles}), and load/run failures are [KF0904]
    ({!Kfuse_util.Diag.Exec_failed}); a supervised execution that the
    watchdog kills, that dies on a signal, or that hits an rlimit is
    [KF0905]/[KF0906]/[KF0907] (see {!Supervisor}).  Malformed {e calls}
    — inputs that do not bind exactly the pipeline's input names at the
    pipeline's extents, unknown parameter overrides — raise
    [Invalid_argument], mirroring {!Kfuse_ir.Eval.run}. *)

module Diag := Kfuse_util.Diag
module Deadline := Kfuse_util.Deadline
module Image := Kfuse_image.Image
module Pipeline := Kfuse_ir.Pipeline

type mode = Dlopen | Subprocess

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

val mode_request_of_string : string -> mode option option
(** The requested-mode vocabulary of the CLI and the wire protocol:
    ["auto"] is [Some None] (let {!prepare} choose), ["dlopen"] and
    ["subprocess"] are [Some (Some m)], anything else is [None]. *)

(** How and what a {!run} executed. *)
type run_result = {
  outputs : (string * Image.t) list;
      (** sink images sorted by name — the same shape
          {!Kfuse_ir.Eval.run_outputs} returns; reduction outputs are
          1x1 images *)
  mode_used : mode;
  artifact : string;  (** path of the compiled object/executable *)
  cached : bool;  (** the artifact came from the compile cache *)
  compile_ms : float;  (** wall-clock spent in the C compiler; 0 on a hit *)
  exec_ms : float;  (** fastest execution sample *)
  samples_ms : float list;  (** every execution sample, in run order *)
  warnings : Diag.t list;
      (** e.g. the [KF0904] that made {!prepare} fall back from
          {!Dlopen} to {!Subprocess} *)
}

(** [source ?tile ~mode p] is the complete C translation unit compiled
    for [p] in [mode]: the float64 {!Kfuse_codegen.Lower_cpu.emit_pipeline}
    output plus the ABI-v2 [kfuse_entry] wrapper ({!Dlopen}), which runs
    it on the caller's buffers in place, or the fork-server entry
    ({!Subprocess}; [main] is the linked fork-server runtime). *)
val source : ?tile:int * int -> mode:mode -> Pipeline.t -> string

(** [compile ?cache_dir ?tile ~mode p] ensures a compiled artifact for
    [p] exists and returns [(path, compile_ms, cached)].  [cache_dir]
    defaults to a [native] directory under
    {!Kfuse_cache.Plan_cache.default_dir}. *)
val compile :
  ?cache_dir:string ->
  ?tile:int * int ->
  mode:mode ->
  Pipeline.t ->
  (string * float * bool, Diag.t) result

(** [run ?mode ?tile ?cache_dir ?params ?repeat ?deadline ?limits p
    inputs] is {!prepare}, then {!run_plan}, then {!release}: compile
    (or reuse) the artifact and execute it on [inputs].  The result
    carries the plan's [compile_ms] and [warnings].

    [inputs] must bind exactly [p.inputs], each of the pipeline's
    extent.  [params] overrides pipeline parameter defaults by name.
    A malformed call raises [Invalid_argument] before anything is
    compiled.  [repeat] (default 1) executes the plan that many times
    over the same buffers — [exec_ms] is the fastest sample, for
    benchmarking; outputs come from the last run.

    [deadline] (default {!Deadline.none}) bounds the whole execution:
    it is checked between [repeat] timing samples in both modes (a
    large [repeat] stops early with [KF0905] instead of overrunning),
    and in {!Subprocess} mode it also feeds the fork-server's
    watchdog, so a wedged run-child is killed rather than outlived.
    [limits] (default {!Supervisor.no_limits}) applies rlimits to every
    {!Subprocess} run-child; {!Dlopen} runs in-process and cannot be resource-capped —
    that is exactly why [kfused] defaults to the sandboxed subprocess
    path.  [mode] is as for {!prepare}. *)
val run :
  ?mode:mode ->
  ?tile:int * int ->
  ?cache_dir:string ->
  ?params:(string * float) list ->
  ?repeat:int ->
  ?deadline:Deadline.t ->
  ?limits:Supervisor.limits ->
  Pipeline.t ->
  (string * Image.t) list ->
  (run_result, Diag.t) result

(** {1 Pinned plans}

    A {!plan} amortizes the per-call setup of {!run} across many
    executions of the same pipeline — the unit of work of a stream
    session.  {!prepare} pays for the compile-cache lookup (and, in
    {!Dlopen} mode, the [dlopen]+[dlsym]) exactly once; {!run_plan} is
    then a bare entry-point call ({!Dlopen}) or one fork of the plan's
    fork-server ({!Subprocess}; the server itself is started by the
    first {!run_plan}, waits for the next run only as long as
    {!keep_alive} says and is restarted on demand), with no cache
    lookup, no loader traffic, no file and no compiler anywhere on the
    per-frame path, and no exec while the server lives. *)

type plan
(** A compiled pipeline pinned in memory: artifact path plus, in
    {!Dlopen} mode, the loaded handle and resolved entry point, in
    {!Subprocess} mode its {!Supervisor.Forkserver}. *)

(** [prepare ?mode ?tile ?cache_dir p] compiles (or reuses) the
    artifact for [p] and pins it.  In {!Dlopen} mode the shared object
    is loaded and the entry point resolved immediately; a load failure
    is [KF0904].  When [mode] is omitted, {!Dlopen} is tried first and
    a [KF0904] falls back to {!Subprocess}, keeping the load failure as
    a warning ({!plan_warnings}); an explicit [mode] never falls
    back. *)
val prepare :
  ?mode:mode ->
  ?tile:int * int ->
  ?cache_dir:string ->
  Pipeline.t ->
  (plan, Diag.t) result

val plan_mode : plan -> mode
val plan_artifact : plan -> string

val plan_cached : plan -> bool
(** Whether {!prepare} found the artifact already in the compile cache. *)

val plan_compile_ms : plan -> float
(** Wall-clock the C compiler took at {!prepare} time; [0] on a hit. *)

val plan_warnings : plan -> Diag.t list
(** The [KF0904] that made {!prepare} fall back to {!Subprocess}, if
    any. *)

val plan_pipeline : plan -> Pipeline.t

(** [run_plan ?params ?repeat ?deadline ?limits plan inputs] executes
    the pinned plan; contract as {!run} ([inputs] binds exactly the
    pipeline's inputs, failures are typed [KF0904..KF0907]), except
    nothing is compiled or loaded: [compile_ms] is always [0],
    [warnings] is empty and [cached] reports what {!prepare} saw.
    Executions of one plan are serialized; in {!Subprocess} mode every
    [repeat] sample is a fresh run-child, and a fork-server that died
    mid-run fails that run with [KF0904] and is restarted by the next.
    @raise Invalid_argument after {!release}. *)
val run_plan :
  ?params:(string * float) list ->
  ?repeat:int ->
  ?deadline:Deadline.t ->
  ?limits:Supervisor.limits ->
  plan ->
  (string * Image.t) list ->
  (run_result, Diag.t) result

val release : plan -> unit
(** Drop the pinned handle: [dlclose] in {!Dlopen} mode; in
    {!Subprocess} mode stop and reap the fork-server and close its
    memfds.  Idempotent. *)

val keep_alive : plan -> ms:float -> unit
(** [keep_alive plan ~ms]: after each run, a {!Subprocess} plan's
    fork-server waits up to [ms] for the next one before exiting
    ([infinity]: until the next run or {!release}).  The default is 0,
    so a plan its owner never releases holds no process once its run
    is answered; an owner that expects more runs soon (a stream) sets
    how long to wait for them.  A run after the server exited starts a
    new one.  No-op for {!Dlopen} plans.
    @raise Invalid_argument on a negative or NaN [ms]. *)

val plan_pid : plan -> int option
(** The pid of a {!Subprocess} plan's fork-server while it has one. *)

val spawns : unit -> int
(** Process-wide count of fork-servers started since startup: one per
    pinned {!Subprocess} plan, plus one per restart after an idle exit
    (see {!keep_alive}) or a death. *)

val compiles : unit -> int
(** Process-wide count of real compiler invocations (compile-cache
    misses) since startup.  Tests assert per-stream compile counts as
    deltas of this counter. *)
