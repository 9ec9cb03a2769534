module Codec = Rrq_util.Codec

type status = Ready | Deq_pending of Rrq_txn.Txid.t

type t = {
  eid : int64;
  payload : string;
  props : (string * string) list;
  priority : int;
  enq_time : float;
  mutable delivery_count : int;
  mutable stale_count : int;
  mutable abort_code : string option;
  mutable status : status;
}

let make ~eid ~payload ~props ~priority ~enq_time =
  {
    eid;
    payload;
    props;
    priority;
    enq_time;
    delivery_count = 0;
    stale_count = 0;
    abort_code = None;
    status = Ready;
  }

let prop t name = List.assoc_opt name t.props
let key t = (-t.priority, t.enq_time, t.eid)

let encode e t =
  Codec.i64 e t.eid;
  Codec.string e t.payload;
  Codec.list (Codec.pair Codec.string Codec.string) e t.props;
  Codec.int e t.priority;
  Codec.float e t.enq_time;
  Codec.int e t.delivery_count;
  Codec.option Codec.string e t.abort_code

let decode d =
  let eid = Codec.get_i64 d in
  let payload = Codec.get_string d in
  let props = Codec.get_list (Codec.get_pair Codec.get_string Codec.get_string) d in
  let priority = Codec.get_int d in
  let enq_time = Codec.get_float d in
  let delivery_count = Codec.get_int d in
  let abort_code = Codec.get_option Codec.get_string d in
  {
    eid;
    payload;
    props;
    priority;
    enq_time;
    delivery_count;
    stale_count = 0;
    abort_code;
    status = Ready;
  }
