module Codec = Rrq_util.Codec

type t = {
  rid : string;
  client_id : string;
  reply_node : string;
  reply_queue : string;
  kind : string;
  body : string;
  scratch : string;
  step : int;
}

let make ~rid ~client_id ~reply_node ~reply_queue ?(kind = "request")
    ?(scratch = "") ?(step = 0) body =
  { rid; client_id; reply_node; reply_queue; kind; body; scratch; step }

let reply_to t ~body = { t with kind = "reply"; body; scratch = ""; step = 0 }
let with_body t ~body ~scratch = { t with body; scratch; step = t.step + 1 }

(* Sized exactly (seven length-prefixed strings and the step), so the
   encoder never grows and its buffer is the result. *)
let to_string t =
  let size =
    64 + String.length t.rid + String.length t.client_id + String.length t.reply_node
    + String.length t.reply_queue + String.length t.kind + String.length t.body
    + String.length t.scratch
  in
  let e = Codec.encoder ~size () in
  Codec.string e t.rid;
  Codec.string e t.client_id;
  Codec.string e t.reply_node;
  Codec.string e t.reply_queue;
  Codec.string e t.kind;
  Codec.string e t.body;
  Codec.string e t.scratch;
  Codec.int e t.step;
  Codec.finish e

let of_string s =
  let d = Codec.decoder s in
  let rid = Codec.get_string d in
  let client_id = Codec.get_string d in
  let reply_node = Codec.get_string d in
  let reply_queue = Codec.get_string d in
  let kind = Codec.get_string d in
  let body = Codec.get_string d in
  let scratch = Codec.get_string d in
  let step = Codec.get_int d in
  { rid; client_id; reply_node; reply_queue; kind; body; scratch; step }

let props t = [ ("rid", t.rid); ("kind", t.kind); ("client", t.client_id) ]
