(* Seeded request generation.  Every request the benchmark sends is a
   pure function of the workload seed (and, for lazy-session ops, of the
   session ids kfused hands back), so two runs with one seed send the
   same bytes. *)

module Rng = Kfuse_util.Rng
module P = Kfuse_service.Protocol
module Lz = Kfuse_lazy

(* The paper's six applications, in table order. *)
let apps = [ "harris"; "sobel"; "unsharp"; "shitomasi"; "enhance"; "night" ]

(* The two temporal apps the stream workload runs side by side. *)
let stream_apps = [ "motion"; "tharris" ]

type sizes = {
  oneshot_extent : int;  (** square extent of every [fuse_exec] *)
  stream_extent : int;  (** square extent of every stream frame *)
  plan_max_kernels : int;  (** [Kfuse_fuzz.Gen.case ~max_kernels] *)
  lazy_extent : int;  (** extent of the lazy-session DAG *)
}

let full = { oneshot_extent = 1024; stream_extent = 512; plan_max_kernels = 48; lazy_extent = 512 }

(* Tiny extents for the smoke tests: the same request shapes, seconds
   of work instead of minutes. *)
let smoke = { oneshot_extent = 32; stream_extent = 32; plan_max_kernels = 10; lazy_extent = 32 }

let fuse_request ?app ?source () : P.fuse_request =
  {
    P.app;
    source;
    strategy = Kfuse_fusion.Driver.Mincut;
    c_mshared = None;
    gamma = None;
    tg = None;
    optimize = false;
    inline = false;
    strict = false;
    budget_ms = None;
    no_cache = false;
  }

(* ---- oneshot ---- *)

type oneshot = { app : string; input_seed : int }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Rounds of the six apps, each round in a fresh seeded order; every
   request gets its own input seed. *)
let oneshot_gen ~seed =
  let rng = Rng.create (seed * 7919 + 1) in
  let round = ref [] in
  fun () ->
    if !round = [] then round := shuffle rng apps;
    match !round with
    | app :: rest ->
      round := rest;
      { app; input_seed = 1 + Rng.int rng 1_000_000_000 }
    | [] -> assert false

let fuse_exec ~extent ?(verify = false) ~app ~seed () =
  P.Fuse_exec
    {
      P.fuse = fuse_request ~app ();
      exec_mode = None;
      width = Some extent;
      height = Some extent;
      seed;
      repeat = 1;
      verify;
      return_pixels = false;
    }

let oneshot_request sizes o = fuse_exec ~extent:sizes.oneshot_extent ~app:o.app ~seed:o.input_seed ()

(* ---- stream ---- *)

(* One synthetic frame-stream seed per stream app. *)
let stream_seeds ~seed =
  let rng = Rng.create (seed * 104729 + 2) in
  List.map (fun app -> (app, 1 + Rng.int rng 1_000_000)) stream_apps

let stream_open sizes ~app ~seed =
  P.Stream_open
    {
      P.fuse = fuse_request ~app ();
      exec_mode = None;
      width = Some sizes.stream_extent;
      height = Some sizes.stream_extent;
      seed;
    }

let stream_push ?(verify = false) id = P.Stream_push { P.id; verify; return_pixels = false }

(* ---- plan ---- *)

(* The lazy sessions edit the 8 x 6-chain DAG of the replan experiment
   (bench/exp_replan.ml): chain [c] mixes stencils and point kernels so
   each chain fuses on its own, and a single-kernel edit dirties exactly
   one chain. *)
let chains = 8

let dag_script =
  List.concat_map
    (fun c ->
      let k j = Printf.sprintf "c%d_%d" c j in
      let inp = Printf.sprintf "in%d" c in
      [
        Printf.sprintf "input %s" inp;
        Printf.sprintf "add %s = conv(%s, gauss3, mirror)" (k 0) inp;
        Printf.sprintf "add %s = %s * 2.0" (k 1) (k 0);
        Printf.sprintf "add %s = conv(%s, gauss5, mirror)" (k 2) (k 1);
        Printf.sprintf "add %s = %s + %s" (k 3) (k 2) (k 0);
        Printf.sprintf "add %s = conv(%s, sobelx, mirror)" (k 4) (k 3);
        Printf.sprintf "add %s = %s * 0.5 + %s" (k 5) (k 4) (k 2);
      ])
    (List.init chains Fun.id)

let or_fail what = function
  | Ok v -> v
  | Error d -> failwith (Printf.sprintf "%s: %s" what (Kfuse_util.Diag.to_string d))

(* The DAG as DSL text, the [source] of every [lazy_open]. *)
let dag_source extent =
  let lp =
    Lz.Lazy_pipeline.create ~name:"chains" ~width:extent ~height:extent
      Kfuse_fusion.Config.default
  in
  List.iter
    (fun line ->
      ignore
        (or_fail line (Result.bind (Lz.Command.parse lp line) (Lz.Command.apply lp))))
    dag_script;
  match Kfuse_dsl.Unparse.pipeline (or_fail "build" (Lz.Lazy_pipeline.pipeline lp)) with
  | Ok src -> src
  | Error e -> failwith ("unparse chains: " ^ e)

(* One single-kernel edit of each kind on chain [c], each followed by an
   incremental flush. *)
let chain_edits rng c =
  let k j = Printf.sprintf "c%d_%d" c j in
  [
    Printf.sprintf "param gain%d %d.%d" c (1 + Rng.int rng 3) (Rng.int rng 10);
    Printf.sprintf "retarget %s %s %s" (k 5) (k 2) (k 0);
    Printf.sprintf "add x%d = %s * 1.1" c (k 5);
    Printf.sprintf "del x%d" c;
  ]

type lazy_op = Open | Edit of string | Flush | Scratch_flush | Close

type plan_step =
  | Fuse of { case : int; source : string; repeat : bool }
  | Lazy of { session : int; op : lazy_op }

(* A pipeline is sent again after [repeat_gap] other fuse requests, so
   about half the fuse requests hit the plan cache. *)
let repeat_gap = 3

(* The lazy session script: seed from the DAG, cold flush, edit+flush
   cycles on two seeded chains, a scratch flush (the differential check)
   and close. *)
let session_script rng =
  let c1 = Rng.int rng chains in
  let c2 = (c1 + 1 + Rng.int rng (chains - 1)) mod chains in
  (Open :: Flush :: List.concat_map (fun e -> [ Edit e; Flush ]) (chain_edits rng c1 @ chain_edits rng c2))
  @ [ Scratch_flush; Close ]

(* The share of steps that are lazy-session ops.  Fixed, not drawn from
   the seed: the mix of cheap hits, misses, edits and flushes sets where
   the latency percentiles fall, and it must not move between seeds. *)
let lazy_share = 1.0 /. 3.0

let plan_gen ~seed sizes =
  let rng = Rng.create (seed * 15485863 + 3) in
  let next_case = ref 0 in
  let slot = ref 0 in
  let repeats = Queue.create () in
  let session = ref (-1) and script = ref [] in
  let rec fresh_source () =
    let i = !next_case in
    incr next_case;
    match Kfuse_dsl.Unparse.pipeline (Kfuse_fuzz.Gen.case ~max_kernels:sizes.plan_max_kernels ~seed i) with
    | Ok src -> (i, src)
    | Error _ -> fresh_source ()
  in
  let next_fuse () =
    let k = !slot in
    incr slot;
    match Queue.peek_opt repeats with
    | Some (due, case, source) when due <= k ->
      ignore (Queue.pop repeats);
      Fuse { case; source; repeat = true }
    | _ ->
      let case, source = fresh_source () in
      Queue.push (k + 1 + repeat_gap, case, source) repeats;
      Fuse { case; source; repeat = false }
  in
  let next_lazy () =
    if !script = [] then begin
      incr session;
      script := session_script rng
    end;
    match !script with
    | op :: rest ->
      script := rest;
      Lazy { session = !session; op }
    | [] -> assert false
  in
  fun () -> if Rng.float rng 1.0 < lazy_share then next_lazy () else next_fuse ()

(* [plan_request ~dag ~id_of step] renders a step; [id_of] maps a
   session index to the id kfused assigned at its [lazy_open]. *)
let plan_request ~dag ~id_of = function
  | Fuse { source; _ } -> P.Fuse (fuse_request ~source ())
  | Lazy { op = Open; _ } ->
    P.Lazy_open
      {
        P.app = None;
        source = Some dag;
        width = None;
        height = None;
        channels = None;
        inputs = [];
        c_mshared = None;
        gamma = None;
        tg = None;
      }
  | Lazy { session; op = Edit command } -> P.Lazy_edit { P.id = id_of session; command }
  | Lazy { session; op = Flush } -> P.Lazy_flush { P.id = id_of session; scratch = false }
  | Lazy { session; op = Scratch_flush } -> P.Lazy_flush { P.id = id_of session; scratch = true }
  | Lazy { session; op = Close } -> P.Lazy_close (id_of session)
