(* Shared test utilities: Alcotest testables and small builders. *)

module Iset = Kfuse_util.Iset
module Image = Kfuse_image.Image

let iset = Alcotest.testable Iset.pp Iset.equal

let partition =
  Alcotest.testable Kfuse_graph.Partition.pp Kfuse_graph.Partition.equal

let image_exact = Alcotest.testable Image.pp Image.equal

let image_close ?(eps = 1e-9) () =
  Alcotest.testable Image.pp (fun a b -> Image.equal_eps ~eps a b)

let expr = Alcotest.testable Kfuse_ir.Expr.pp Kfuse_ir.Expr.equal

let float_close ?(eps = 1e-9) () =
  Alcotest.testable Fmt.float (fun a b -> Float.abs (a -. b) <= eps)

let set_of l = Iset.of_list l

(* A deterministic small test image: values depend on position so border
   mistakes show up. *)
let ramp ~width ~height =
  Image.init ~width ~height (fun x y -> float_of_int ((x * 7) + (y * 13) + 1))

(* Assert that [f ()] raises Invalid_argument (any message). *)
let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* Run a pipeline on bindings and return the single sink image. *)
let run_single p bindings =
  match Kfuse_ir.Eval.run_outputs p (Kfuse_ir.Eval.env_of_list bindings) with
  | [ (_, img) ] -> img
  | outs -> Alcotest.failf "expected one output, got %d" (List.length outs)

(* Remove [path] and everything under it; missing entries are fine. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
