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

(* [frame64_layout], a region at a time: [b] from [i] to [stop] is the
   region being folded (a stretch of [buf], or the spliced string at the
   head of [spliced]), [left] the layout bytes still to fold, and [c] the
   first [n] bytes of a word that straddles two regions, so the words
   folded are the concatenation's words. [c] holds at most 7 bytes until
   its eighth completes the word, whose top bit an OCaml int drops as
   [Int64.to_int] does. The last [len mod 8] bytes are folded one by one,
   as [frame64] folds them. *)
let rec fold_layout buf spliced b i stop left h c n =
  if i < stop then
    if n > 0 || stop - i < 8 then begin
      let c = c lor (Char.code (Bytes.unsafe_get b i) lsl (8 * n)) in
      if n = 7 then
        fold_layout buf spliced b (i + 1) stop (left - 1) ((h lxor c) * frame_prime) 0 0
      else fold_layout buf spliced b (i + 1) stop (left - 1) h c (n + 1)
    end
    else begin
      let words = (stop - i) / 8 in
      let h = ref h in
      for k = 0 to words - 1 do
        h := (!h lxor Int64.to_int (Bytes.get_int64_le b (i + (k * 8)))) * frame_prime
      done;
      fold_layout buf spliced b (i + (words * 8)) stop (left - (words * 8)) !h 0 0
    end
  else if left = 0 then begin
    let h = ref h in
    for k = 0 to n - 1 do
      h := (!h lxor ((c lsr (8 * k)) land 0xff)) * frame_prime
    done;
    Int64.of_int !h
  end
  else
    match spliced with
    | [] -> invalid_arg "Checksum.frame64_layout: len runs past the layout"
    | (at, s) :: later ->
      if b == buf then
        fold_layout buf spliced (Bytes.unsafe_of_string s) 0 (String.length s) left h c n
      else
        let stop = match later with (next, _) :: _ -> next | [] -> at + left in
        fold_layout buf later buf at stop left h c n

let frame64_layout buf ~spliced ~pos ~len =
  let stop = match spliced with (at, _) :: _ -> at | [] -> pos + len in
  fold_layout buf spliced buf pos stop len frame_basis 0 0
