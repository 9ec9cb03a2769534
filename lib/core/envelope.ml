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

(* The header leads the element's properties: the optional fields first,
   then the five every envelope has, in a fixed order. [of_parts] reads that
   prefix by position, so properties a caller appends after it can never be
   taken for header fields. *)
let props t =
  let header =
    [ ("rid", t.rid); ("kind", t.kind); ("client", t.client_id);
      ("reply_node", t.reply_node); ("reply_queue", t.reply_queue) ]
  in
  let header = if t.step = 0 then header else ("step", string_of_int t.step) :: header in
  if t.scratch = "" then header else ("scratch", t.scratch) :: header

let of_parts ~props body =
  let scratch, props =
    match props with ("scratch", s) :: rest -> (s, rest) | _ -> ("", props)
  in
  let step, props =
    match props with
    | ("step", n) :: rest -> (
      match int_of_string_opt n with
      | Some n -> (n, rest)
      | None -> raise (Codec.Decode_error ("bad envelope step " ^ n)))
    | _ -> (0, props)
  in
  match props with
  | ("rid", rid) :: ("kind", kind) :: ("client", client_id)
    :: ("reply_node", reply_node) :: ("reply_queue", reply_queue) :: _ ->
    { rid; client_id; reply_node; reply_queue; kind; body; scratch; step }
  | _ -> raise (Codec.Decode_error "element properties carry no envelope header")
