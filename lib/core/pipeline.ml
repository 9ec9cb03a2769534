module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb

type stage = {
  stage_site : Site.t;
  in_queue : string;
  work : Site.t -> Tm.txn -> Envelope.t -> string * string;
  compensate : (Site.t -> Tm.txn -> Envelope.t -> unit) option;
}

type t = { stages : stage array }

let comp_queue_name q = "comp." ^ q
let executed_mark ~rid ~step = Printf.sprintf "saga:%s:%d" rid step
let env_mark ~rid ~step = Printf.sprintf "saga:env:%s:%d" rid step
let cancelled_flag ~rid = "saga:cancelled:" ^ rid

(* Per-request lock owner for the inheritance mode (§6): a synthetic
   transaction id that holds the chain's locks between stages. *)
let owner_txid rid = Txid.make ~origin:("req#" ^ rid) ~inc:0 ~n:0

let entry_queue t = t.stages.(0).in_queue
let entry_site t = Site.site_name t.stages.(0).stage_site
let cancel_queue t = comp_queue_name t.stages.(Array.length t.stages - 1).in_queue
let cancel_site t = Site.site_name t.stages.(Array.length t.stages - 1).stage_site

let stage_handler stages ~inherit_locks i site txn env =
  let st = stages.(i) in
  let is_last = i = Array.length stages - 1 in
  let kv = Site.kv site in
  let id = Tm.txn_id txn in
  let rid = env.Envelope.rid in
  (* A durable cancel flag set by a passing compensation run stops the
     request from executing further stages. *)
  if Kvdb.get kv id (cancelled_flag ~rid) <> None then Server.No_reply
  else begin
    if inherit_locks && i > 0 then
      Kvdb.transfer_locks kv ~from:(owner_txid rid) ~to_:id;
    let body, scratch = st.work site txn env in
    Kvdb.put kv id (executed_mark ~rid ~step:i) "done";
    Kvdb.put kv id (env_mark ~rid ~step:i) (Envelope.to_string env);
    let result =
      if is_last then Server.Reply body
      else begin
        let next = stages.(i + 1) in
        Server.Forward
          {
            dst = Site.site_name next.stage_site;
            queue = next.in_queue;
            env = Envelope.with_body env ~body ~scratch;
          }
      end
    in
    if inherit_locks && not is_last then
      Kvdb.transfer_locks kv ~from:id ~to_:(owner_txid rid);
    result
  end

let comp_handler stages i site txn env =
  let st = stages.(i) in
  let rid = env.Envelope.body in
  let kv = Site.kv site in
  let id = Tm.txn_id txn in
  Kvdb.put kv id (cancelled_flag ~rid) "1";
  (match Kvdb.get kv id (executed_mark ~rid ~step:i) with
  | Some _ ->
    (match st.compensate with
    | Some comp -> begin
      match Kvdb.get kv id (env_mark ~rid ~step:i) with
      | Some env_str -> comp site txn (Envelope.of_string env_str)
      | None -> ()
    end
    | None -> ());
    Kvdb.delete kv id (executed_mark ~rid ~step:i);
    Kvdb.delete kv id (env_mark ~rid ~step:i)
  | None -> ());
  if i = 0 then Server.Reply ("cancelled:" ^ rid)
  else begin
    let prev = stages.(i - 1) in
    Server.Forward
      {
        dst = Site.site_name prev.stage_site;
        queue = comp_queue_name prev.in_queue;
        env = Envelope.with_body env ~body:rid ~scratch:"";
      }
  end

let install ?(threads = 1) ?(inherit_locks = false) stage_list =
  if stage_list = [] then invalid_arg "Pipeline.install: no stages";
  let stages = Array.of_list stage_list in
  if inherit_locks then begin
    let first = Site.site_name stages.(0).stage_site in
    Array.iter
      (fun st ->
        if Site.site_name st.stage_site <> first then
          invalid_arg "Pipeline.install: lock inheritance needs a single site")
      stages
  end;
  (* Created at every boot, like a site's configured queues: a crash before
     the creation is durable must not leave the stage's restarted server
     without its queue. *)
  Array.iter
    (fun st ->
      Site.on_boot st.stage_site (fun site ->
          Qm.create_queue (Site.qm site) st.in_queue;
          Qm.create_queue (Site.qm site) (comp_queue_name st.in_queue)))
    stages;
  Array.iteri
    (fun i st ->
      ignore
        (Server.start st.stage_site ~req_queue:st.in_queue ~threads
           ~name:(Printf.sprintf "stage%d:%s" i st.in_queue)
           (stage_handler stages ~inherit_locks i));
      ignore
        (Server.start st.stage_site
           ~req_queue:(comp_queue_name st.in_queue)
           ~threads:1
           ~name:(Printf.sprintf "comp%d:%s" i st.in_queue)
           (comp_handler stages i)))
    stages;
  { stages }
