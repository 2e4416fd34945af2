module Diag = Kfuse_util.Diag

type 'a session = {
  id : string;
  value : 'a;
  mutable last_used : float;
  mutable in_flight : int;
  mutable closed : bool;
}

type 'a t = {
  metrics : Metrics.t;
  family : string;
  noun : string;
  id_prefix : string;
  capacity : int;
  idle_ms : float;
  full : int -> Diag.t;
  on_release : 'a -> unit;
  (* Everything below is under [lock].  [opening] counts admitted opens
     still building their value, so the capacity bound holds across
     concurrent opens. *)
  lock : Mutex.t;
  table : (string, 'a session) Hashtbl.t;
  mutable opening : int;
  mutable next_id : int;
}

let id s = s.id
let value s = s.value

let metric t what = t.family ^ "_" ^ what

let create ~metrics ~family ~noun ~id_prefix ~capacity ~idle_ms ~full
    ?(on_release = ignore) () =
  List.iter
    (fun what -> Metrics.touch metrics (family ^ "_" ^ what))
    [ "opened"; "closed"; "expired"; "shed" ];
  Metrics.adjust_gauge metrics (family ^ "_active") 0;
  {
    metrics;
    family;
    noun;
    id_prefix;
    capacity;
    idle_ms;
    full;
    on_release;
    lock = Mutex.create ();
    table = Hashtbl.create 16;
    opening = 0;
    next_id = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unknown t id =
  Diag.errorf Diag.Stream_unknown
    "unknown %s %S (never opened, already closed, or idle-expired)" t.noun id

let open_ t make =
  let admitted =
    locked t (fun () ->
        let room = Hashtbl.length t.table + t.opening < t.capacity in
        if room then t.opening <- t.opening + 1;
        room)
  in
  if not admitted then begin
    Metrics.incr t.metrics (metric t "shed");
    Error (t.full t.capacity)
  end
  else begin
    let made =
      match make () with
      | made -> made
      | exception e ->
        locked t (fun () -> t.opening <- t.opening - 1);
        raise e
    in
    (* Listing in the same critical section that gives the admission
       back keeps a racing open from slipping past the bound. *)
    let listed =
      locked t (fun () ->
          t.opening <- t.opening - 1;
          Result.map
            (fun value ->
              let id = Printf.sprintf "%s-%d" t.id_prefix t.next_id in
              t.next_id <- t.next_id + 1;
              let s =
                { id; value; last_used = Unix.gettimeofday (); in_flight = 0; closed = false }
              in
              Hashtbl.replace t.table id s;
              s)
            made)
    in
    if Result.is_ok listed then begin
      Metrics.incr t.metrics (metric t "opened");
      Metrics.incr_gauge t.metrics (metric t "active")
    end;
    listed
  end

let acquire ?(refuse = fun ~in_flight:_ -> None) t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.table id with
      | None -> Error (unknown t id)
      | Some s -> (
        match refuse ~in_flight:s.in_flight with
        | Some d -> Error d
        | None ->
          s.in_flight <- s.in_flight + 1;
          s.last_used <- Unix.gettimeofday ();
          Ok s))

(* Exactly-once release: the transition to [closed && in_flight = 0] is
   observed under [lock] by exactly one thread — the closer (or expirer,
   or drain) when no operation holds the session, else the last holder
   out. *)
let release t s =
  let release_now =
    locked t (fun () ->
        s.in_flight <- s.in_flight - 1;
        s.last_used <- Unix.gettimeofday ();
        s.closed && s.in_flight = 0)
  in
  if release_now then t.on_release s.value

let with_session ?refuse t id f =
  match acquire ?refuse t id with
  | Error _ as e -> e
  | Ok s -> Ok (Fun.protect ~finally:(fun () -> release t s) (fun () -> f s))

let is_closed t s = locked t (fun () -> s.closed)

(* Unlist [s] (under [lock]); true when no operation holds it, so its
   value can be released now. *)
let retire t s =
  s.closed <- true;
  Hashtbl.remove t.table s.id;
  s.in_flight = 0

let close t id =
  match
    locked t (fun () ->
        match Hashtbl.find_opt t.table id with
        | None -> None
        | Some s -> Some (s, retire t s))
  with
  | None -> Error (unknown t id)
  | Some (s, release_now) ->
    if release_now then t.on_release s.value;
    Metrics.incr t.metrics (metric t "closed");
    Metrics.decr_gauge t.metrics (metric t "active");
    Ok s

(* Idle expiry runs lazily from the owner's session and stats ops: no
   reaper thread to leak, and an idle daemon pins nothing forever.  A
   session held by an operation is never idle, however long it runs. *)
let expire_idle t =
  if t.idle_ms > 0.0 then begin
    let now = Unix.gettimeofday () in
    let doomed =
      locked t (fun () ->
          let idle =
            Hashtbl.fold
              (fun _ s acc ->
                if s.in_flight = 0 && (now -. s.last_used) *. 1000.0 > t.idle_ms then s :: acc
                else acc)
              t.table []
          in
          List.iter (fun s -> ignore (retire t s)) idle;
          idle)
    in
    List.iter
      (fun s ->
        t.on_release s.value;
        Metrics.incr t.metrics (metric t "expired");
        Metrics.decr_gauge t.metrics (metric t "active"))
      doomed
  end

let release_all t =
  let all, free =
    locked t (fun () ->
        let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.table [] in
        (all, List.filter (retire t) all))
  in
  List.iter (fun s -> t.on_release s.value) free;
  List.iter (fun _ -> Metrics.decr_gauge t.metrics (metric t "active")) all
