(** The connection front-end shared by [kfused] ({!Server}) and the
    shard router ({!Router}): everything between the listen socket and a
    request handler.

    - {b Accept}: one thread accepts on a Unix-domain listener.  The
      ["service.accept"] fault point drops one accepted connection
      ([connections_dropped]) while the process keeps serving.
    - {b Admission}: [max_conns] long-lived worker threads serve
      connections and up to [queue] more wait in a bounded queue.  When
      both are full, the connection is {e shed} with a typed
      [KF0803 overloaded] reply ([requests_shed]).  The ["service.shed"]
      fault point forces one shed.
    - {b Per request}: recv → decode → handler → {!Metrics.observe} →
      reply.  Each request runs under a [request_timeout_ms] wall-clock
      deadline, also armed as [SO_RCVTIMEO]/[SO_SNDTIMEO] on the
      connection, so a slow-loris or vanished peer frees its worker with
      a [KF0804] reply ([requests_timed_out]).  A handler that raises
      becomes an error reply; [ping] and [shutdown] are answered here.
      The ["proto.torn_frame"], ["proto.slow_write"] and
      ["proto.drop_reply"] fault points corrupt, delay or swallow one
      reply without wedging the worker.
    - {b Drain}: {!wait} stops accepting, lets in-flight connections
      finish for up to [drain_timeout_ms], then shuts the rest down,
      joins every worker and runs the owner's post-drain step before it
      removes the socket file. *)

module Diag := Kfuse_util.Diag

type limits = {
  max_conns : int;  (** worker threads, >= 1 *)
  queue : int;  (** admission queue bound, >= 0 *)
  request_timeout_ms : float;  (** per-request deadline; <= 0 disables *)
  drain_timeout_ms : float;  (** grace before a forced drain *)
}

type t

(** [validate_limits l] rejects [max_conns < 1] and [queue < 0] with a
    typed [Config_invalid] diagnostic. *)
val validate_limits : limits -> (unit, Diag.t) result

(** [claim_socket path] prepares [path] for a fresh [bind]: absent is
    fine; an existing socket file is probed with a connect — no listener
    (stale leftover of a crashed process) is unlinked, a live listener
    is a [KF0802] refusal, a non-socket file is a [KF0101]. *)
val claim_socket : string -> (unit, Diag.t) result

(** [create ~socket ~role limits] binds and listens on [socket] (claim
    it first) and creates the metrics registry with the front-end's
    counters.  Nothing is served until {!serve}.  [role] names the
    process in the overload message (["server"], ["router"]). *)
val create : socket:string -> role:string -> limits -> (t, Diag.t) result

(** [serve t handler] spawns the workers and the accept thread.
    [handler ~deadline req] answers every request except [ping] and
    [shutdown]; it may raise. *)
val serve :
  t -> (deadline:Kfuse_util.Deadline.t -> Protocol.request -> Jsonx.t) -> unit

(** [wait t ~after_drain] blocks until a stop is requested ({!request_stop},
    {!signal_stop} or a [shutdown] request), drains and joins the
    workers, runs [after_drain ()], then removes the socket file. *)
val wait : t -> after_drain:(unit -> unit) -> unit

(** [request_stop t] stops the accept loop and wakes idle workers,
    without blocking on the drain.  Idempotent. *)
val request_stop : t -> unit

(** [signal_stop t] is a single atomic store, safe from a signal
    handler; the thread in {!wait} notices it within ~20ms. *)
val signal_stop : t -> unit

(** [stopping t] holds once a stop has begun. *)
val stopping : t -> bool

(** [in_flight t] is the number of connections being served plus those
    waiting in the admission queue — 0 after a clean drain. *)
val in_flight : t -> int

val socket : t -> string
val metrics : t -> Metrics.t
val limits : t -> limits
