(* The four xoshiro words live unboxed in a 32-byte buffer: mutable
   [int64] record fields would box a fresh Int64 per word per draw,
   while [Bytes.get/set_int64_ne] compile to plain loads and stores. *)
type t = Bytes.t

(* SplitMix64, used only to expand a seed into the four xoshiro words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix64 state)
  done;
  t

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create seed

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int n))

let float t x =
  (* 53 high bits -> [0,1) *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
