module Codec = Rrq_util.Codec

type t = { origin : string; inc : int; n : int }

let make ~origin ~inc ~n = { origin; inc; n }
let compare = Stdlib.compare
let equal a b = compare a b = 0
(* Keyed by txid without the polymorphic hash and compare: a resource
   manager looks up a transaction's workspace on every operation. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = a.n = b.n && a.inc = b.inc && String.equal a.origin b.origin
  let hash t = ((t.n * 65599) + t.inc) land max_int
end)

let to_string t = Printf.sprintf "%s.%d.%d" t.origin t.inc t.n

let encode e t =
  Codec.string e t.origin;
  Codec.int e t.inc;
  Codec.int e t.n

let decode d =
  let origin = Codec.get_string d in
  let inc = Codec.get_int d in
  let n = Codec.get_int d in
  { origin; inc; n }
