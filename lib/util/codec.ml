(* Bytes-backed rather than [Buffer.t]: callers on the commit fast path
   reuse one encoder ({!reset}) and hand the filled prefix to the WAL via
   {!bytes}/{!length} without materialising an intermediate string. *)
type encoder = { mutable buf : Bytes.t; mutable pos : int }

let encoder ?(size = 64) () = { buf = Bytes.create size; pos = 0 }
let reset e = e.pos <- 0
let length e = e.pos
let bytes e = e.buf
let to_string e = Bytes.sub_string e.buf 0 e.pos

let adopt e buf =
  e.buf <- buf;
  e.pos <- 0

(* An encoder sized exactly is full at the end: its buffer becomes the
   string, and the encoder drops it so no later write can reach it. *)
let finish e =
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
  ensure e (8 + n);
  Bytes.set_int64_le e.buf e.pos (Int64.of_int n);
  Bytes.blit_string s 0 e.buf (e.pos + 8) n;
  e.pos <- e.pos + 8 + n

(* A length slot now, filled in once the bytes after it are written. *)
let begin_length e =
  let mark = e.pos in
  ensure e 8;
  e.pos <- e.pos + 8;
  mark

let end_length e mark =
  Bytes.set_int64_le e.buf mark (Int64.of_int (e.pos - mark - 8))

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
