(* Bytes-backed rather than [Buffer.t]: callers on the commit fast path
   reuse one encoder ({!reset}) and hand the filled prefix to the WAL via
   {!bytes}/{!length} without materialising an intermediate string.

   A string of a page or more is not copied in: the buffer gets its length
   prefix, and [spliced] records the string and where it goes. [at] is the
   buffer position the string's bytes would start at, [before] counts the
   spliced bytes ahead of it; the list is newest first, so its head gives
   the spliced total. *)
type splice = { at : int; s : string; before : int }
type encoder = { mutable buf : Bytes.t; mutable pos : int; mutable spliced : splice list }

let splice_min = 4096

let encoder ?(size = 64) () = { buf = Bytes.create size; pos = 0; spliced = [] }

let reset e =
  e.pos <- 0;
  if e.spliced <> [] then e.spliced <- []

let spliced_bytes e =
  match e.spliced with [] -> 0 | { s; before; _ } :: _ -> before + String.length s

let length e = e.pos + spliced_bytes e
let spliced e = e.spliced <> []
let bytes e = e.buf

(* Write the contents into [dst] at [off], newest splice first: every
   stretch of the buffer moves right by the spliced bytes ahead of it,
   so [dst] may be the buffer itself. Top-level, so a frame of an
   encoder with nothing spliced allocates no closure. *)
let rec blit_below e dst off hi = function
  | [] -> if dst != e.buf || off <> 0 then Bytes.blit e.buf 0 dst off hi
  | { at; s; before } :: older ->
    let n = String.length s in
    Bytes.blit e.buf at dst (off + at + before + n) (hi - at);
    Bytes.blit_string s 0 dst (off + at + before) n;
    blit_below e dst off at older

let blit e dst off = blit_below e dst off e.pos e.spliced

let to_string e =
  if e.spliced = [] then Bytes.sub_string e.buf 0 e.pos
  else begin
    let b = Bytes.create (length e) in
    blit e b 0;
    Bytes.unsafe_to_string b
  end

let buffered e = e.pos

let splices e ~off =
  List.fold_left (fun acc { at; s; _ } -> (off + at, s) :: acc) [] e.spliced

let adopt e buf =
  e.buf <- buf;
  reset e

(* Spliced strings are spread into the buffer first, in place when it has
   room. An encoder sized exactly is then full: its buffer becomes the
   string, and the encoder drops it so no later write can reach it. *)
let finish e =
  if e.spliced <> [] then begin
    let n = length e in
    if Bytes.length e.buf >= n then blit e e.buf 0
    else begin
      let b = Bytes.create n in
      blit e b 0;
      e.buf <- b
    end;
    e.pos <- n;
    e.spliced <- []
  end;
  let s =
    if e.pos = Bytes.length e.buf then Bytes.unsafe_to_string e.buf
    else Bytes.sub_string e.buf 0 e.pos
  in
  e.buf <- Bytes.empty;
  e.pos <- 0;
  s

let ensure e n =
  let need = e.pos + n in
  if need > Bytes.length e.buf then begin
    let cap = ref (max 1 (Bytes.length e.buf * 2)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let buf = Bytes.create !cap in
    Bytes.blit e.buf 0 buf 0 e.pos;
    e.buf <- buf
  end

let u8 e v =
  ensure e 1;
  Bytes.unsafe_set e.buf e.pos (Char.chr (v land 0xff));
  e.pos <- e.pos + 1

let i64 e v =
  ensure e 8;
  Bytes.set_int64_le e.buf e.pos v;
  e.pos <- e.pos + 8

(* Ints are written and read in place, never as a boxed [Int64.t]: every
   string length is one. *)
let int e v =
  ensure e 8;
  Bytes.set_int64_le e.buf e.pos (Int64.of_int v);
  e.pos <- e.pos + 8

let bool e v = u8 e (if v then 1 else 0)
let float e v = i64 e (Int64.bits_of_float v)

let raw e s =
  let n = String.length s in
  ensure e n;
  Bytes.blit_string s 0 e.buf e.pos n;
  e.pos <- e.pos + n

let string e s =
  let n = String.length s in
  if n >= splice_min then begin
    int e n;
    e.spliced <- { at = e.pos; s; before = spliced_bytes e } :: e.spliced
  end
  else begin
    ensure e (8 + n);
    Bytes.set_int64_le e.buf e.pos (Int64.of_int n);
    Bytes.blit_string s 0 e.buf (e.pos + 8) n;
    e.pos <- e.pos + 8 + n
  end

(* A length slot now, filled in once the bytes after it are written. Until
   then it holds the spliced total at the mark, so the length counts the
   strings spliced in between. *)
let begin_length e =
  let mark = e.pos in
  ensure e 8;
  Bytes.set_int64_le e.buf mark (Int64.of_int (spliced_bytes e));
  e.pos <- e.pos + 8;
  mark

let end_length e mark =
  let before = Int64.to_int (Bytes.get_int64_le e.buf mark) in
  Bytes.set_int64_le e.buf mark (Int64.of_int (e.pos - mark - 8 + spliced_bytes e - before))

let option f b = function
  | None -> u8 b 0
  | Some v -> u8 b 1; f b v

let list f b l =
  int b (List.length l);
  List.iter (f b) l

let pair f g b (x, y) = f b x; g b y

type decoder = { src : string; mutable pos : int }

exception Decode_error of string

let decoder ?(pos = 0) src = { src; pos }
let at_end d = d.pos >= String.length d.src

let need d n =
  if d.pos + n > String.length d.src then
    raise (Decode_error (Printf.sprintf "truncated input at %d (+%d > %d)"
                           d.pos n (String.length d.src)))

let get_u8 d =
  need d 1;
  let v = Char.code d.src.[d.pos] in
  d.pos <- d.pos + 1;
  v

let get_i64 d =
  need d 8;
  let v = String.get_int64_le d.src d.pos in
  d.pos <- d.pos + 8;
  v

let get_int d =
  need d 8;
  let v = Int64.to_int (String.get_int64_le d.src d.pos) in
  d.pos <- d.pos + 8;
  v

let get_bool d =
  match get_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error (Printf.sprintf "bad bool byte %d" n))

let get_float d = Int64.float_of_bits (get_i64 d)

let get_string d =
  let n = get_int d in
  if n < 0 then raise (Decode_error "negative string length");
  need d n;
  let s = String.sub d.src d.pos n in
  d.pos <- d.pos + n;
  s

let get_option f d =
  match get_u8 d with
  | 0 -> None
  | 1 -> Some (f d)
  | n -> raise (Decode_error (Printf.sprintf "bad option byte %d" n))

let get_list f d =
  let n = get_int d in
  if n < 0 then raise (Decode_error "negative list length");
  List.init n (fun _ -> f d)

let get_pair f g d =
  let x = f d in
  let y = g d in
  (x, y)
