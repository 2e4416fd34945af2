(** A bounded table of server-side sessions: kfused's video streams and
    lazy-pipeline editing sessions share this one lifecycle.

    - {b Open}: a capacity check, then the caller builds the session
      value, then an id ["<prefix>-<n>"] is allocated and the session is
      listed.  An open beyond [capacity] is shed.
    - {b Use}: an operation looks a session up and {e acquires} it (an
      in-flight count), then releases it.  Releasing refreshes the idle
      clock.
    - {b Close}, {b idle expiry} and {b drain} unlist a session.  Its
      [on_release] hook (e.g. dropping a pinned native plan) runs exactly
      once, when the session is unlisted and no operation holds it —
      idle expiry never takes a held session.

    Metric names are derived from [family]: counters
    [<family>_opened/_closed/_expired/_shed] and the gauge
    [<family>_active].  Thread-safe: one mutex per table, never held
    while building a value or running a hook. *)

module Diag := Kfuse_util.Diag

type 'a t
type 'a session

val id : 'a session -> string
val value : 'a session -> 'a

(** [create ~metrics ~family ~noun ~id_prefix ~capacity ~idle_ms ~full ()]
    is an empty table.  [noun] names a session in the typed [KF0806]
    unknown-id error; [full capacity] is the error of a shed open;
    [idle_ms <= 0] disables idle expiry. *)
val create :
  metrics:Metrics.t ->
  family:string ->
  noun:string ->
  id_prefix:string ->
  capacity:int ->
  idle_ms:float ->
  full:(int -> Diag.t) ->
  ?on_release:('a -> unit) ->
  unit ->
  'a t

(** [open_ t make] admits one open against the capacity (counting it in
    [<family>_shed] and failing with [full] when at capacity), runs
    [make ()] outside the lock, and lists the result under a fresh id.
    An [Error] from [make] is returned as is and lists nothing. *)
val open_ : 'a t -> (unit -> ('a, Diag.t) result) -> ('a session, Diag.t) result

(** [with_session ?refuse t id f] looks [id] up, takes one in-flight
    hold, runs [f] and drops the hold (also when [f] raises); the last
    holder of a session closed meanwhile runs its release hook.
    [refuse ~in_flight] runs under the lock with the current hold count
    and may reject the operation before any hold is taken (a bounded
    per-session queue).  Unknown ids are a typed [KF0806]. *)
val with_session :
  ?refuse:(in_flight:int -> Diag.t option) ->
  'a t ->
  string ->
  ('a session -> 'b) ->
  ('b, Diag.t) result

(** [unknown t id] is the typed [KF0806] error for an id this table
    does not list. *)
val unknown : 'a t -> string -> Diag.t

(** [is_closed t s] holds once [s] was closed, expired or drained. *)
val is_closed : 'a t -> 'a session -> bool

(** [close t id] unlists [id]; the hook runs now if no operation holds
    it, else when the last holder releases. *)
val close : 'a t -> string -> ('a session, Diag.t) result

(** [expire_idle t] unlists every session that is not held and has been
    idle longer than [idle_ms]. *)
val expire_idle : 'a t -> unit

(** [release_all t] unlists every session (an orderly shutdown, after
    the workers are joined). *)
val release_all : 'a t -> unit
