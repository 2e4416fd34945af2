(* One isolated kfused child per measurement: its own socket, plan-cache
   directory (artifacts live under its [native/] subdirectory), crash
   directory and TMPDIR, all under a fresh run root that is removed
   whatever happens. *)

module Client = Kfuse_service.Client
module Diag = Kfuse_util.Diag

type t = {
  pid : int;
  root : string;
  socket : string;
  spawned_at : float;
  mutable reaped : bool;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let counter = ref 0

(* [fresh_root base] is a new empty directory under [base], named after
   this process so concurrent benchmarks never share one. *)
let fresh_root base =
  incr counter;
  let dir = Filename.concat base (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter) in
  rm_rf dir;
  mkdir_p (Filename.concat dir "tmp");
  dir

(* The serve flags: the shipped defaults, with every path pinned inside
   the run root. *)
let serve_args ~root =
  [
    "serve";
    "--socket"; Filename.concat root "k.sock";
    "--cache-dir"; Filename.concat root "cache";
    "--crash-dir"; Filename.concat root "crash";
    "--exec-sandbox"; "on";
  ]

let spawn ~kfusec ~root =
  let argv = kfusec :: serve_args ~root in
  let tmp =
    let d = Filename.concat root "tmp" in
    if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d
  in
  let env =
    Array.append
      [| "TMPDIR=" ^ tmp |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let log = Unix.openfile (Filename.concat root "serve.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let spawned_at = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () -> Unix.create_process_env kfusec (Array.of_list argv) env null log log)
  in
  { pid; root; socket = Filename.concat root "k.sock"; spawned_at; reaped = false }

let alive t =
  (not t.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ ->
    t.reaped <- true;
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    t.reaped <- true;
    false

let call ?(timeout_ms = 60_000.0) t req =
  Client.with_connection ~socket:t.socket ~timeout_ms (fun c -> Client.request c req)

(* Poll with pings until kfused answers. *)
let wait_ready ?(timeout_s = 20.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if not (alive t) then Error "kfused exited during start-up (see serve.log)"
    else
      match call ~timeout_ms:1000.0 t Kfuse_service.Protocol.Ping with
      | Ok _ -> Ok ()
      | Error _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        go ()
      | Error d -> Error ("kfused never answered: " ^ Diag.to_string d)
  in
  go ()

let read_file path =
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* kfused's peak resident set ([VmHWM]) in MiB. *)
let rss_peak_mb t =
  match read_file (Printf.sprintf "/proc/%d/status" t.pid) with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb)
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Live processes whose command line mentions [root]: kfused itself, its
   compiler runs and its supervised plan executions. *)
let processes_under root =
  let needle = root ^ "/" in
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | None -> acc
      | Some pid -> (
        match read_file (Printf.sprintf "/proc/%d/cmdline" pid) with
        | Some cmd when pid <> Unix.getpid () -> (
          let cmd = String.map (fun c -> if c = '\000' then ' ' else c) cmd in
          if contains cmd needle then pid :: acc else acc)
        | _ -> acc))
    []
    (try Sys.readdir "/proc" with Sys_error _ -> [||])

(* Leftover scratch entries kfused (or a plan it ran) made in its TMPDIR. *)
let tmp_leftovers t =
  match Sys.readdir (Filename.concat t.root "tmp") with
  | entries -> List.filter (String.starts_with ~prefix:"kfuse") (Array.to_list entries)
  | exception Sys_error _ -> []

let kill_and_reap t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.reaped <- true
  end

(* Orderly stop: the [shutdown] op, then reap.  Returns the problems
   found: a server that had to be killed, or that left processes or
   scratch files behind. *)
let shutdown t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if alive t then begin
    (match call ~timeout_ms:10_000.0 t Kfuse_service.Protocol.Shutdown with
    | Ok _ -> ()
    | Error d -> problem "shutdown op failed: %s" (Diag.to_string d));
    let deadline = Unix.gettimeofday () +. 15.0 in
    while alive t && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if alive t then begin
      problem "kfused still running 15 s after shutdown; killed";
      kill_and_reap t
    end
  end
  else problem "kfused had already exited before shutdown";
  (match processes_under t.root with
  | [] -> ()
  | pids ->
    problem "processes of the run survived it: %s"
      (String.concat " " (List.map string_of_int pids));
    List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids);
  (match tmp_leftovers t with
  | [] -> ()
  | l -> problem "scratch left in kfused's TMPDIR: %s" (String.concat " " l));
  List.rev !problems

(* [with_server ~kfusec ~base f] runs [f] against a fresh kfused and
   always stops it and removes its root; [f]'s result comes back with
   the shutdown problems. *)
let with_server ~kfusec ~base f =
  let root = fresh_root base in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let t = spawn ~kfusec ~root in
      match f t with
      | r -> (r, shutdown t)
      | exception e ->
        kill_and_reap t;
        raise e)
