(* Bytes-backed rather than [Buffer.t]: callers on the commit fast path
   reuse one encoder ({!reset}) and hand the filled prefix to the WAL via
   {!bytes}/{!length} without materialising an intermediate string. *)
type encoder = { mutable buf : Bytes.t; mutable pos : int }

let encoder () = { buf = Bytes.create 64; pos = 0 }
let reset e = e.pos <- 0
let length e = e.pos
let bytes e = e.buf
let to_string e = Bytes.sub_string e.buf 0 e.pos

let ensure e n =
  let need = e.pos + n in
  if need > Bytes.length e.buf then begin
    let cap = ref (Bytes.length e.buf * 2) in
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

let int e v = i64 e (Int64.of_int v)
let bool e v = u8 e (if v then 1 else 0)
let float e v = i64 e (Int64.bits_of_float v)

let raw e s =
  let n = String.length s in
  ensure e n;
  Bytes.blit_string s 0 e.buf e.pos n;
  e.pos <- e.pos + n

let string e s =
  int e (String.length s);
  raw e s

let nested e src =
  int e src.pos;
  ensure e src.pos;
  Bytes.blit src.buf 0 e.buf e.pos src.pos;
  e.pos <- e.pos + src.pos

let option f b = function
  | None -> u8 b 0
  | Some v -> u8 b 1; f b v

let list f b l =
  int b (List.length l);
  List.iter (f b) l

let pair f g b (x, y) = f b x; g b y

type decoder = { src : string; mutable pos : int }

exception Decode_error of string

let decoder src = { src; pos = 0 }
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

let get_int d = Int64.to_int (get_i64 d)

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
