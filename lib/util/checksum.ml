let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let fnv1a64_sub s ~pos ~len =
  let h = ref offset_basis in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code s.[i]));
    h := Int64.mul !h prime
  done;
  !h

let fnv1a64 s = fnv1a64_sub s ~pos:0 ~len:(String.length s)

(* Word-wise FNV-1a variant in native-int arithmetic (mod 2^63). Byte-wise
   FNV costs ~1.5ns/byte — boxed int64 ops per byte — which makes the
   checksum the single most expensive part of logging a commit record.
   This folds 8 bytes per step with unboxed ints instead: same
   xor-then-multiply structure, an 8th of the iterations, no boxing in the
   loop. Any single-bit corruption still lands in exactly one folded word,
   so the torn/corrupt frames WAL recovery cares about are detected just
   as well. Not interoperable with canonical FNV-1a. *)
let frame_prime = 0x100000001b3
let frame_basis = 0x4cb2f29ce484222

let frame64_sub s ~pos ~len =
  let h = ref frame_basis in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let w = Int64.to_int (String.get_int64_le s (pos + (i * 8))) in
    h := (!h lxor w) * frame_prime
  done;
  for i = pos + (words * 8) to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * frame_prime
  done;
  Int64.of_int !h

let frame64 s = frame64_sub s ~pos:0 ~len:(String.length s)

let frame64_bytes b ~pos ~len =
  let h = ref frame_basis in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let w = Int64.to_int (Bytes.get_int64_le b (pos + (i * 8))) in
    h := (!h lxor w) * frame_prime
  done;
  for i = pos + (words * 8) to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * frame_prime
  done;
  Int64.of_int !h

(* [frame64] of a concatenation, a piece at a time ([feed] folds a piece
   from byte [pos]): [carry] holds the first
   [n] bytes of a word that straddles two pieces, so the words folded are
   the concatenation's words, and its last [len mod 8] bytes are folded
   one by one as [frame64] folds them. *)
type stream = { mutable h : int; carry : Bytes.t; mutable n : int }

let feed st s pos =
  let len = String.length s in
  let h = ref st.h and n = ref st.n and i = ref pos in
  while !n > 0 && !i < len do
    Bytes.unsafe_set st.carry !n (String.unsafe_get s !i);
    incr n;
    incr i;
    if !n = 8 then begin
      h := (!h lxor Int64.to_int (Bytes.get_int64_le st.carry 0)) * frame_prime;
      n := 0
    end
  done;
  let words = (len - !i) / 8 in
  for k = 0 to words - 1 do
    h := (!h lxor Int64.to_int (String.get_int64_le s (!i + (k * 8)))) * frame_prime
  done;
  for k = !i + (words * 8) to len - 1 do
    Bytes.unsafe_set st.carry !n (String.unsafe_get s k);
    incr n
  done;
  st.h <- !h;
  st.n <- !n

let frame64_pieces ?(skip = 0) pieces =
  let st = { h = frame_basis; carry = Bytes.create 8; n = 0 } in
  List.iteri (fun i s -> feed st s (if i = 0 then skip else 0)) pieces;
  for i = 0 to st.n - 1 do
    st.h <- (st.h lxor Char.code (Bytes.unsafe_get st.carry i)) * frame_prime
  done;
  Int64.of_int st.h
