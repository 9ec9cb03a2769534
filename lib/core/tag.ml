module Codec = Rrq_util.Codec

(* Sized exactly, so [finish] hands the buffer over as the tag. *)
let pack rid ckpt =
  let piece = function None -> 1 | Some s -> 9 + String.length s in
  let e = Codec.encoder ~size:(piece rid + piece ckpt) () in
  Codec.option Codec.string e rid;
  Codec.option Codec.string e ckpt;
  Codec.finish e

let send ~rid = pack (Some rid) None
let receive ~rid ~ckpt = pack rid ckpt

let unpack tag =
  try
    let d = Codec.decoder tag in
    let rid = Codec.get_option Codec.get_string d in
    let ckpt = Codec.get_option Codec.get_string d in
    (rid, ckpt)
  with Codec.Decode_error _ -> (None, None)

let rid_piece tag = fst (unpack tag)
let ckpt_piece tag = snd (unpack tag)

type op = [ `Enqueue of string | `Dequeue of string option ]

let repeats op ~kind ~tag =
  match op with
  | `Enqueue tg -> kind = `Enqueue && tag = tg
  | `Dequeue rid -> kind = `Dequeue && rid <> None && rid_piece tag = rid
