(* Order statistics for benchmark samples.

   A tail percentile is only reported when at least [min_beyond] samples
   lie beyond it: with fewer, one outlier moves it arbitrarily far, and a
   run that cannot support the percentile must say so instead of printing
   a number. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank index of percentile [p] in [n] sorted samples. *)
let rank ~p n = max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)

let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error (Printf.sprintf "p%g refused: no samples" p)
  else
    let k = rank ~p n in
    let beyond = n - (k + 1) in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g refused: %d sample(s) beyond it of %d, need %d" p beyond n
           min_beyond)
    else Ok a.(k)

(* Samples needed before [percentile ~p] accepts. *)
let samples_needed ~p =
  let rec go n =
    let beyond = n - (rank ~p n + 1) in
    if beyond >= min_beyond then n else go (n + 1)
  in
  go 1

(* Median (mean of the middle pair for even counts); [nan] when empty. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> Float.nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
