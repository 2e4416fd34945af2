(* In-memory spans for the traced run, written once at the end as Chrome
   trace-event JSON (loads in Perfetto and chrome://tracing).

   A request span covers the wire round trip ("rpc") and the in-process
   replay of each layer on the same input; each layer call is a child
   span, so a viewer nests them and a layer's sample list is the
   durations of its spans. *)

module Jsonx = Kfuse_service.Jsonx

type span = {
  name : string;
  cat : string;
  tid : int;
  ts_us : float;
  dur_us : float;
  args : (string * Jsonx.t) list;
}

type t = {
  lock : Mutex.t;
  t0 : float;
  mutable spans : span list;
  samples : (string, float list) Hashtbl.t;
}

let create () =
  { lock = Mutex.create (); t0 = Unix.gettimeofday (); spans = []; samples = Hashtbl.create 32 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let now_us t = (Unix.gettimeofday () -. t.t0) *. 1e6

(* [add_sample t layer v] records one observation of [layer] that is
   not a span duration (a reply-derived time, a byte count). *)
let add_sample t layer v =
  locked t (fun () ->
      let l = Option.value ~default:[] (Hashtbl.find_opt t.samples layer) in
      Hashtbl.replace t.samples layer (v :: l))

let record t ~cat ~tid ~args name ts_us dur_us =
  locked t (fun () -> t.spans <- { name; cat; tid; ts_us; dur_us; args } :: t.spans)

(* [span t ~tid ~req name f] times [f ()] as a child span of request
   [req] and, unless [sample] is false, files the duration (ms) under
   [name]. *)
let span t ?(sample = true) ~tid ~req name f =
  let s = now_us t in
  let r = f () in
  let e = now_us t in
  record t ~cat:"layer" ~tid ~args:[ ("req", Jsonx.Num (float_of_int req)) ] name s (e -. s);
  if sample then add_sample t name ((e -. s) /. 1000.0);
  r

(* [request t ~tid ~req ~op f] wraps a request's round trip and layer
   replay in its parent span. *)
let request t ~tid ~req ~op f =
  let s = now_us t in
  let r = f () in
  let e = now_us t in
  record t ~cat:"request" ~tid
    ~args:[ ("req", Jsonx.Num (float_of_int req)); ("op", Jsonx.Str op) ]
    ("request " ^ op) s (e -. s);
  r

let samples t layer =
  locked t (fun () -> List.rev (Option.value ~default:[] (Hashtbl.find_opt t.samples layer)))

let span_count t = locked t (fun () -> List.length t.spans)

let write t ~path ~meta =
  let events =
    List.rev_map
      (fun s ->
        Jsonx.Obj
          [
            ("name", Jsonx.Str s.name);
            ("cat", Jsonx.Str s.cat);
            ("ph", Jsonx.Str "X");
            ("pid", Jsonx.Num 1.0);
            ("tid", Jsonx.Num (float_of_int s.tid));
            ("ts", Jsonx.Num s.ts_us);
            ("dur", Jsonx.Num s.dur_us);
            ("args", Jsonx.Obj s.args);
          ])
      (locked t (fun () -> t.spans))
  in
  let doc =
    Jsonx.Obj
      [
        ("traceEvents", Jsonx.Arr events);
        ("displayTimeUnit", Jsonx.Str "ms");
        ("otherData", Jsonx.Obj meta);
      ]
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (Jsonx.to_string doc);
      output_char oc '\n')
