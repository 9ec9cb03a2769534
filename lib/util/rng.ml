type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64 *)
let int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = int64 t }

let int t bound =
  assert (bound > 0);
  (* Shift by 2 so the value fits OCaml's 63-bit int without wrapping. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L
let chance t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -. mean *. log u

(* Zipf via the Gray et al. quick generator (as in YCSB), with the zeta
   constant memoized per (n, theta). *)
let zeta_cache : (int * float, float) Hashtbl.t = Hashtbl.create 8

let zeta n theta =
  match Hashtbl.find_opt zeta_cache (n, theta) with
  | Some z -> z
  | None ->
    let z = ref 0.0 in
    for i = 1 to n do
      z := !z +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    Hashtbl.add zeta_cache (n, theta) !z;
    !z

let zipf t ~n ~theta =
  let zetan = zeta n theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta 2 theta /. zetan))
  in
  let u = float t 1.0 in
  let uz = u *. zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 theta then 1
  else
    int_of_float (float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha)
    |> min (n - 1)
