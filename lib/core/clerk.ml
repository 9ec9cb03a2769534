module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched

type t = {
  cnode : Net.node;
  client_id : string;
  req_queue : string;
  reply_q : string;
  rpc_timeout : float;
  retries : int;
  strict : bool;
  mutable fsm : Client_fsm.state;
  mutable last_rid : string option;
  mutable last_eid : int64 option;
  (* Virtual send time of the outstanding request, for the rtt metric. *)
  mutable sent_at : float option;
  (* The only routing description ({!Shard}). An unsharded clerk holds a
     version-0 map: one shard, the configured system, whose candidates are
     its HA backups. Replies piggyback newer maps; an explicit refresh
     follows a full round of failed candidates. Duplicate suppression via
     registration tags makes every retry against another node safe. *)
  mutable smap : Shard.map;
  (* Per shard (keyed by its owner): the candidate that last answered. *)
  current : (string, string) Hashtbl.t;
}

type connect_info = {
  s_rid : string option;
  r_rid : string option;
  ckpt : string option;
}

exception Unavailable of string
exception Protocol_violation of string

(* Track (and under [strict], enforce) the fig. 1/7 state machine. *)
let transition t event =
  match Client_fsm.step t.fsm event with
  | Some next ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Client_fsm
           {
             client = t.client_id;
             from_state = Client_fsm.state_to_string t.fsm;
             event = Client_fsm.event_to_string event;
             to_state = Client_fsm.state_to_string next;
           });
    t.fsm <- next
  | None ->
    if t.strict then
      raise
        (Protocol_violation
           (Printf.sprintf "%s is illegal in state %s"
              (Client_fsm.event_to_string event)
              (Client_fsm.state_to_string t.fsm)))

(* The owner and failover candidates of the shard holding one of this
   client's queues, under the current map. *)
let key t queue = Shard.key_for t.smap ~queue ~registrant:t.client_id
let candidates t queue = Shard.candidates t.smap (key t queue)

let current t cands =
  match Hashtbl.find_opt t.current (List.hd cands) with
  | Some c when List.mem c cands -> c
  | _ -> List.hd cands

let rotate t cands =
  let cur = current t cands in
  let rec next = function
    | a :: b :: _ when a = cur -> b
    | _ :: tl -> next tl
    | [] -> List.hd cands
  in
  Hashtbl.replace t.current (List.hd cands) (next cands)

(* Adopt a newer shard map. The [shard.refresh] counter is the visible
   evidence of every map refresh, piggybacked or explicit. *)
let install_map t (m : Shard.map) =
  if m.Shard.version > t.smap.Shard.version then begin
    t.smap <- m;
    Rrq_obs.Metrics.inc "shard.refresh"
  end

(* Explicit refresh: ask any repository the map names for its current map
   (used when every candidate for a key is unreachable — the map may have
   moved the key from under us). No router serves a version-0 map. *)
let refresh_map t =
  let m = t.smap in
  if m.Shard.version > 0 then
    ignore
      (List.exists
         (fun dst ->
           match
             Net.call t.cnode ~timeout:t.rpc_timeout ~dst ~service:"shard"
               Shard.Sh_get_map
           with
           | Shard.Sh_map nm when nm.Shard.version > m.Shard.version ->
             install_map t nm;
             true
           | _ -> false
           | exception (Net.Rpc_timeout | Net.Service_error _) -> false)
         (Shard.all_nodes m))

(* Wrap an operation with the clerk's map version for the shard router. *)
let routed t msg =
  match t.smap.Shard.version with
  | 0 -> msg
  | version -> Shard.Sh_routed { version; hops = 0; inner = msg }

(* Send to the queue's shard's current candidate. A timeout or a standby's
   refusal rotates that shard to its next candidate and backs off; a full
   round of failures refreshes the map. [retries] bounds node attempts. *)
let rpc ?(extra_timeout = 0.0) ~queue t msg =
  let rec go attempts_left failed =
    let cands = candidates t queue in
    let dst = current t cands in
    match
      Net.call t.cnode
        ~timeout:(t.rpc_timeout +. extra_timeout)
        ~dst ~service:"qm" (routed t msg)
    with
    | Shard.Sh_reply { newer; inner } ->
      Option.iter (install_map t) newer;
      inner
    | v -> v
    | exception (Net.Rpc_timeout | Net.Service_error _) ->
      if attempts_left <= 0 then
        raise
          (Unavailable (Printf.sprintf "%s unreachable (queue %s)" dst queue))
      else begin
        rotate t cands;
        let round_failed = failed + 1 >= List.length cands in
        if round_failed then refresh_map t;
        Sched.sleep (0.5 *. t.rpc_timeout);
        go (attempts_left - 1) (if round_failed then 0 else failed + 1)
      end
  in
  go t.retries 0

let do_connect t =
  (match rpc t ~queue:t.reply_q (Site.Q_create_queue t.reply_q) with
  | Net.Ack -> ()
  | _ -> raise (Unavailable "unexpected reply to create-queue"));
  let s_rid, s_eid =
    match
      rpc t ~queue:t.req_queue
        (Site.Q_register
           { queue = t.req_queue; registrant = t.client_id; stable = true })
    with
    | Site.R_registered { last_tag; last_eid; _ } ->
      ((match last_tag with Some tag -> Tag.rid_piece tag | None -> None), last_eid)
    | _ -> raise (Unavailable "unexpected reply to register")
  in
  let r_rid, ckpt =
    match
      rpc t ~queue:t.reply_q
        (Site.Q_register
           { queue = t.reply_q; registrant = t.client_id; stable = true })
    with
    | Site.R_registered { last_tag = Some tag; _ } ->
      (Tag.rid_piece tag, Tag.ckpt_piece tag)
    | Site.R_registered { last_tag = None; _ } -> (None, None)
    | _ -> raise (Unavailable "unexpected reply to register")
  in
  t.last_rid <- s_rid;
  t.last_eid <- s_eid;
  t.fsm <- Client_fsm.Disconnected;
  transition t
    (match (s_rid, r_rid) with
    | None, _ -> Client_fsm.Connect_fresh
    | Some s, Some r when s = r -> Client_fsm.Connect_reply_recvd
    | Some _, _ -> Client_fsm.Connect_req_sent);
  { s_rid; r_rid; ckpt }

let connect ~client_node ~system ?(backups = []) ?shard_map ~client_id
    ~req_queue ?reply_queue ?(rpc_timeout = 1.0) ?(retries = 10)
    ?(strict = false) () =
  let smap =
    match shard_map with
    | Some m -> m
    | None ->
      {
        Shard.version = 0;
        shards = [ system ];
        backups = [ (system, List.filter (fun b -> b <> system) backups) ];
        sharded_queues = [];
        pins = [];
      }
  in
  let t =
    {
      cnode = client_node;
      client_id;
      req_queue;
      reply_q =
        (match reply_queue with Some q -> q | None -> "reply." ^ client_id);
      rpc_timeout;
      retries;
      strict;
      fsm = Client_fsm.Disconnected;
      last_rid = None;
      last_eid = None;
      sent_at = None;
      smap;
      current = Hashtbl.create 4;
    }
  in
  let info = do_connect t in
  (t, info)

let reconnect t = do_connect t

let disconnect t =
  transition t Client_fsm.Disconnect;
  ignore
    (rpc t ~queue:t.req_queue
       (Site.Q_deregister { registrant = t.client_id; queue = t.req_queue }));
  ignore
    (rpc t ~queue:t.reply_q
       (Site.Q_deregister { registrant = t.client_id; queue = t.reply_q }))

let client_id t = t.client_id
let reply_queue t = t.reply_q

(* The reply destination stamped into every request: the reply queue's
   owning shard under the current map (stable across map changes by the
   {!Shard} non-sharded-queue constraint). After a failover the promoted
   standby answers to that name too ({!Site.set_aliases}), and cross-shard
   enqueues walk its candidates ({!Site.set_candidates}). *)
let envelope t ~rid ?kind ?scratch ?step ~body () =
  Envelope.make ~rid ~client_id:t.client_id
    ~reply_node:(Shard.owner t.smap (key t t.reply_q))
    ~reply_queue:t.reply_q ?kind ?scratch ?step body

(* A request's enqueue: tagged with its Send, its header in the element
   properties ahead of the caller's, its body the payload. *)
let request_op t ~rid ~props env =
  Site.Q_enqueue
    {
      registrant = t.client_id;
      queue = t.req_queue;
      tag = Some (Tag.send ~rid);
      props = Envelope.props env @ props;
      priority = 0;
      body = env.Envelope.body;
    }

let send t ~rid ?(props = []) ?kind ?scratch ?step body =
  (* Retrying the same Send is recovery, not a transition; an intermediate
     input (step > 0) is the fig. 7 Send-intermediate edge. *)
  if t.last_rid <> Some rid then
    transition t
      (match step with
      | Some n when n > 0 -> Client_fsm.Send_intermediate
      | _ -> Client_fsm.Send);
  let env = envelope t ~rid ?kind ?scratch ?step ~body () in
  match rpc t ~queue:t.req_queue (request_op t ~rid ~props env) with
  | Site.R_eid eid ->
    t.last_rid <- Some rid;
    t.last_eid <- Some eid;
    if Rrq_obs.enabled () then begin
      if Sched.in_fiber () then t.sent_at <- Some (Sched.clock ());
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Clerk_send { client = t.client_id; rid; eid })
    end;
    Rrq_sim.Crashpoint.reach ("clerk.sent:" ^ t.client_id);
    eid
  | _ -> raise (Unavailable "unexpected reply to enqueue")

let send_oneway t ~rid ?(props = []) body =
  let env = envelope t ~rid ~body () in
  t.last_rid <- Some rid;
  t.last_eid <- None;
  Net.cast t.cnode
    ~dst:(current t (candidates t t.req_queue))
    ~service:"qm"
    (routed t (request_op t ~rid ~props env))

let decode_view = function
  | None -> None
  | Some v -> Some (Envelope.of_parts ~props:v.Site.v_props v.Site.v_payload)

let receive t ?ckpt ?(timeout = 30.0) () =
  match
    rpc ~extra_timeout:timeout t ~queue:t.reply_q
      (Site.Q_dequeue
         {
           registrant = t.client_id;
           queue = t.reply_q;
           tag = Some (Tag.receive ~rid:t.last_rid ~ckpt);
           filter = None;
           timeout = Some timeout;
         })
  with
  | Site.R_element v ->
    let reply = decode_view v in
    (match reply with
    | Some r when r.Envelope.kind = "intermediate" ->
      transition t Client_fsm.Receive_intermediate
    | Some _ ->
      transition t Client_fsm.Receive_reply;
      if Rrq_obs.enabled () then begin
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Clerk_receive
             {
               client = t.client_id;
               rid = Option.value ~default:"" t.last_rid;
             });
        (match t.sent_at with
        | Some t0 when Sched.in_fiber () ->
          Rrq_obs.Metrics.observe
            ("clerk.rtt:" ^ t.client_id)
            (Sched.clock () -. t0)
        | _ -> ());
        t.sent_at <- None
      end;
      Rrq_sim.Crashpoint.reach ("clerk.received:" ^ t.client_id)
    | None -> () (* timeout: no transition; the client will retry *));
    reply
  | _ -> raise (Unavailable "unexpected reply to dequeue")

let rereceive t =
  transition t Client_fsm.Rereceive;
  match
    rpc t ~queue:t.reply_q
      (Site.Q_read_last { registrant = t.client_id; queue = t.reply_q })
  with
  | Site.R_element v -> decode_view v
  | _ -> raise (Unavailable "unexpected reply to read-last")

let transceive t ~rid ?props ?ckpt ?timeout body =
  ignore (send t ~rid ?props body);
  receive t ?ckpt ?timeout ()

let cancel_last_request t =
  match t.last_eid with
  | None -> false
  | Some eid -> begin
    match rpc t ~queue:t.req_queue (Site.Q_kill eid) with
    | Site.R_bool b ->
      (* A successful cancel closes the request: the client may Send anew. *)
      if b && t.fsm = Client_fsm.Req_sent then t.fsm <- Client_fsm.Reply_recvd;
      b
    | _ -> false
  end

let cancel_request_anywhere t ~sites ~rid =
  let filter =
    Rrq_qm.Filter.And
      (Rrq_qm.Filter.Prop_eq ("client", t.client_id),
       Rrq_qm.Filter.Prop_eq ("rid", rid))
  in
  List.exists
    (fun site ->
      match
        Net.call t.cnode ~timeout:t.rpc_timeout ~dst:site ~service:"qm"
          (Site.Q_kill_where filter)
      with
      | Site.R_int n -> n > 0
      | _ -> false
      | exception (Net.Rpc_timeout | Net.Service_error _) -> false)
    sites

let state t = t.fsm
