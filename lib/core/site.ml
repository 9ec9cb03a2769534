module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched
module Tm = Rrq_txn.Tm
module Node_log = Rrq_txn.Node_log
module Txid = Rrq_txn.Txid
module Lock = Rrq_txn.Lock
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter
module Kvdb = Rrq_kvdb.Kvdb

let reply_prefix = "reply."
let reply_queue client = reply_prefix ^ client

let reply_client queue =
  if String.starts_with ~prefix:reply_prefix queue then
    let n = String.length reply_prefix in
    Some (String.sub queue n (String.length queue - n))
  else None

type elem_view = {
  v_eid : int64;
  v_payload : string;
  v_props : (string * string) list;
  v_priority : int;
  v_delivery_count : int;
  v_abort_code : string option;
}

let view_of_element (el : Element.t) =
  {
    v_eid = el.Element.eid;
    v_payload = el.Element.payload;
    v_props = el.Element.props;
    v_priority = el.Element.priority;
    v_delivery_count = el.Element.delivery_count;
    v_abort_code = el.Element.abort_code;
  }

type Net.payload +=
  | Q_register of { queue : string; registrant : string; stable : bool }
  | R_registered of {
      last_kind : [ `Enqueue | `Dequeue ] option;
      last_tag : string option;
      last_eid : int64 option;
    }
  | Q_enqueue of {
      registrant : string;
      queue : string;
      tag : string option;
      props : (string * string) list;
      priority : int;
      body : string;
    }
  | R_eid of int64
  | Q_dequeue of {
      registrant : string;
      queue : string;
      tag : string option;
      filter : Filter.t option;
      timeout : float option;
    }
  | R_element of elem_view option
  | Q_fence of string
  | Q_read_last of { registrant : string; queue : string }
  | Q_kill of int64
  | Q_kill_where of Filter.t
  | R_int of int
  | R_bool of bool
  | Q_deregister of { registrant : string; queue : string }
  | Q_create_queue of string
  | Q_enqueue_tx of {
      id : Txid.t;
      queue : string;
      props : (string * string) list;
      priority : int;
      body : string;
    }
  | R_tx_eid of { eid : int64; inc : int }
  | T_decision of Txid.t
  | R_decision of [ `Committed | `Aborted | `Pending ]
  | T_force_abort of Txid.t
  | RM_prepare of { rm : string; id : Txid.t; coordinator : string; inc : int }
  | RM_commit of { rm : string; id : Txid.t }
  | RM_abort of { rm : string; id : Txid.t }
  | RM_status of { rm : string; id : Txid.t }
  | R_status of Tm.rm_status
  | RM_forget of { rm : string; ids : Txid.t list }

exception Aborted of string

type t = {
  site_node : Net.node;
  mutable s_log : Node_log.t;
  mutable s_tm : Tm.t;
  mutable s_qm : Qm.t;
  mutable s_kv : Kvdb.t;
  queues : (string * Qm.attrs) list;
  triggers : Qm.trigger list;
  stale_timeout : float;
  mutable extra_boot : (t -> unit) list; (* oldest first *)
  (* HA role state (see Ha). A standby site refuses client-facing service
     requests — clerks fail over to the primary — while its repositories
     are fed by shipped WAL records. Aliases are peer node names this site
     answers for after a failover: replies addressed to the dead primary
     must land on the promoted backup's own queues, not cross the wire. *)
  mutable standby : bool;
  mutable aliases : string list;
  (* Failover candidates for a remote repository, itself first: a shard
     router lists an HA shard's standby, so a cross-shard enqueue reaches
     the promoted standby when the shard's primary is down. *)
  mutable candidates : string -> string list;
}

let node t = t.site_node
let site_name t = Net.node_name t.site_node
let set_standby t b = t.standby <- b
let is_standby t = t.standby
let set_aliases t names = t.aliases <- names
let aliases t = t.aliases
let is_local_name t dst = dst = site_name t || List.mem dst t.aliases
let set_candidates t f = t.candidates <- f

(* Raised (hence surfaced to callers as [Net.Service_error]) when a client
   operation reaches a standby; the clerk treats it like a dead node and
   rotates to the next candidate primary. *)
let standby_guard t =
  if t.standby then failwith ("ha: " ^ site_name t ^ " is a standby")
let log t = t.s_log
let tm t = t.s_tm
let qm t = t.s_qm
let kv t = t.s_kv

(* rm names are "kind@node"; the node part addresses the hosting site. *)
let rm_node rm_name =
  match String.index_opt rm_name '@' with
  | Some i -> String.sub rm_name (i + 1) (String.length rm_name - i - 1)
  | None -> rm_name

(* [inc] is the incarnation the remote node reported with the
   operation that made it a participant; the prepare carries it back to
   that node. The other requests go to whichever of the RM's repository
   candidates serves now (a standby refuses them): after a failover that
   is the promoted standby, which holds the RM's log. *)
let proxy t ~rm_name ~inc =
  let dst = rm_node rm_name in
  let serving ?timeout msg =
    let rec ask = function
      | [] -> None
      | node :: rest -> (
        match Net.call t.site_node ?timeout ~dst:node ~service:"rm" msg with
        | reply -> Some reply
        | exception (Net.Rpc_timeout | Net.Service_error _) -> ask rest)
    in
    ask (t.candidates dst)
  in
  {
    Tm.part_name = rm_name;
    p_local = None;
    p_prepare =
      (fun id ~coordinator ->
        let reply =
          Net.call_async t.site_node ~dst ~service:"rm"
            (RM_prepare { rm = rm_name; id; coordinator; inc })
        in
        fun () ->
          match reply () with
          | R_bool b -> b
          | _ -> false
          | exception (Net.Rpc_timeout | Net.Service_error _) -> false);
    p_commit =
      (fun id ->
        (* The rm service answers once the commit record is durable. *)
        match serving (RM_commit { rm = rm_name; id }) with
        | Some (R_bool b) -> b
        | Some _ | None -> false);
    p_abort = (fun id -> ignore (serving (RM_abort { rm = rm_name; id })));
    p_has_work = (fun _ -> true) (* only joined after a successful remote op *);
    p_status =
      (fun id ->
        match serving ~timeout:1.0 (RM_status { rm = rm_name; id }) with
        | Some (R_status s) -> Some s
        | Some _ | None -> None);
    p_forget =
      (fun ids -> Net.cast t.site_node ~dst ~service:"rm" (RM_forget { rm = rm_name; ids }));
  }

(* A proxy rebuilt by name carries no incarnation: it redelivers, asks and
   aborts, and a prepare through it votes no. *)
let remote_participant t ~rm_name = proxy t ~rm_name ~inc:(-1)

(* This site's RMs, also under the names of the peers it answers for. *)
let local_participant t rm_name =
  if not (is_local_name t (rm_node rm_name)) then None
  else if String.starts_with ~prefix:"qm@" rm_name then Some (Qm.participant t.s_qm)
  else if String.starts_with ~prefix:"kv@" rm_name then Some (Kvdb.participant t.s_kv)
  else None

(* ---- services -------------------------------------------------------- *)

let clerk_service t msg =
  standby_guard t;
  let qm = t.s_qm in
  match msg with
  | Q_register { queue; registrant; stable } ->
    let _, last = Qm.register qm ~queue ~registrant ~stable in
    let last_kind = Option.map (fun l -> l.Qm.op_kind) last in
    let last_tag = Option.map (fun l -> l.Qm.tag) last in
    let last_eid = Option.map (fun l -> l.Qm.op_eid) last in
    R_registered { last_kind; last_tag; last_eid }
  | Q_enqueue { registrant; queue; tag; props; priority; body } ->
    let h, last = Qm.register qm ~queue ~registrant ~stable:true in
    let duplicate =
      match (tag, last) with
      | Some tg, Some l ->
        Tag.repeats (`Enqueue tg) ~kind:l.Qm.op_kind ~tag:l.Qm.tag
      | _ -> false
    in
    (match (duplicate, last) with
    | true, Some l ->
      (* The first attempt's record may still be in flight: answer once it
         is durable, as the first attempt would, with everything before
         it (a lazy Receive the clerk counts on this Send to fence). *)
      Node_log.force_upto t.s_log (Node_log.tail t.s_log);
      R_eid l.Qm.op_eid
    | _ ->
      let eid =
        Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ?tag ~props ~priority body)
      in
      R_eid eid)
  | Q_dequeue { registrant; queue; tag; filter; timeout } ->
    let h, last = Qm.register qm ~queue ~registrant ~stable:true in
    (* A retried Receive gets the element its first attempt took, but only
       a reply to the request it waits for: a stray (an older request's
       reply that came back after a crash) would otherwise answer every
       later Receive with the same rid, and the next reply would never
       be dequeued. *)
    let saved =
      match (tag, last) with
      | Some tg, Some ({ Qm.element_copy = Some el; _ } as l)
        when Tag.repeats (`Dequeue tg) ~kind:l.Qm.op_kind ~tag:l.Qm.tag
             && Element.prop el "rid" = Tag.rid_piece tg ->
        Some el
      | _ -> None
    in
    begin match saved with
    | Some el -> R_element (Some (view_of_element el))
    | None ->
      let wait =
        match timeout with None -> Qm.No_wait | Some d -> Qm.Timeout d
      in
      (* A Receive from the registrant's own reply queue is lazy: a reply
         may be seen twice (paper §3), and the clerk fences it before its
         next Send or Disconnect is acknowledged. Any other queue may have
         other dequeuers, who must not see an element come back. *)
      let deq id = Qm.dequeue qm id h ?tag ?filter wait in
      let el =
        if reply_client queue = Some registrant then Qm.auto_commit_lazy qm deq
        else Qm.auto_commit qm deq
      in
      R_element (Option.map view_of_element el)
    end
  | Q_fence _ ->
    Node_log.force_upto t.s_log (Node_log.tail t.s_log);
    Net.Ack
  | Q_read_last { registrant; queue } ->
    let h, _ = Qm.register qm ~queue ~registrant ~stable:true in
    R_element (Option.map view_of_element (Qm.read_last qm h))
  | Q_kill eid -> R_bool (Qm.kill_element qm eid)
  | Q_kill_where filter -> R_int (Qm.kill_where qm filter)
  | Q_create_queue queue ->
    Qm.create_queue qm queue;
    Net.Ack
  | Q_deregister { registrant; queue } ->
    let h, _ = Qm.register qm ~queue ~registrant ~stable:true in
    Qm.deregister qm h;
    Net.Ack
  | _ -> raise (Invalid_argument "qm service: unexpected message")

let qm_tx_service t msg =
  standby_guard t;
  match msg with
  | Q_enqueue_tx { id; queue; props; priority; body } ->
    let qm = t.s_qm in
    let h, _ =
      Qm.register qm ~queue ~registrant:("pipeline@" ^ queue) ~stable:false
    in
    let eid = Qm.enqueue qm id h ~props ~priority body in
    R_tx_eid { eid; inc = Qm.incarnation qm }
  | _ -> raise (Invalid_argument "qm-tx service: unexpected message")

(* A standby's RMs change only by shipping: it refuses every request,
   and the caller tries the next candidate. *)
let rm_service t msg =
  standby_guard t;
  let find rm =
    match local_participant t rm with
    | Some p -> p
    | None -> raise (Invalid_argument ("unknown rm " ^ rm))
  in
  match msg with
  | RM_prepare { rm; id; coordinator; inc } ->
    (* The work was buffered in incarnation [inc]; a restart since lost
       it, even if later operations rebuilt part of the workspace. *)
    R_bool (inc = Qm.incarnation t.s_qm && (find rm).Tm.p_prepare id ~coordinator ())
  | RM_commit { rm; id } -> R_bool ((find rm).Tm.p_commit id)
  | RM_abort { rm; id } ->
    (find rm).Tm.p_abort id;
    Net.Ack
  | RM_status { rm; id } ->
    R_status (Option.value ~default:`Unknown ((find rm).Tm.p_status id))
  | RM_forget { rm; ids } ->
    (find rm).Tm.p_forget ids;
    Net.Ack
  | _ -> raise (Invalid_argument "rm service: unexpected message")

let tm_service t msg =
  match msg with
  | T_decision id -> R_decision (Tm.decision t.s_tm id)
  | T_force_abort id -> R_bool (Tm.force_abort t.s_tm id)
  | _ -> raise (Invalid_argument "tm service: unexpected message")

(* ---- daemons --------------------------------------------------------- *)

(* A commit still remembered a second later has lost its forget (a dropped
   message, a coordinator crash): ask the coordinator, and forget it once
   the outcome is no longer pending there, i.e. its decision record is
   durable. Returns what is remembered now, for the next round. *)
let release_leaked t seen =
  let remembered =
    List.sort_uniq Txid.compare (Qm.remembered t.s_qm @ Kvdb.remembered t.s_kv)
  in
  List.iter
    (fun id ->
      if List.exists (Txid.equal id) seen then
        match
          Net.call t.site_node ~timeout:1.0 ~dst:id.Txid.origin ~service:"tm"
            (T_decision id)
        with
        | R_decision (`Committed | `Aborted) ->
          (Qm.participant t.s_qm).Tm.p_forget [ id ];
          (Kvdb.participant t.s_kv).Tm.p_forget [ id ]
        | _ -> ()
        | exception (Net.Rpc_timeout | Net.Service_error _) -> ())
    remembered;
  remembered

(* Resolve recovered in-doubt transactions by asking their coordinators;
   presumed abort when the coordinator has no record. *)
let resolver_daemon t () =
  let resolve_one (id, coord) ~commit ~abort =
    match
      Net.call t.site_node ~dst:coord ~service:"tm" (T_decision id)
    with
    | R_decision `Committed -> commit id
    | R_decision `Aborted -> abort id
    | R_decision `Pending | _ -> ()
    | exception (Net.Rpc_timeout | Net.Service_error _) -> ()
  in
  (* The daemon must outlive recovery: a participant can become in-doubt
     long after boot — it prepared for a remote coordinator (a cross-shard
     reply enqueue) and the coordinator crashed before deciding. Only this
     poller ever resolves that doubt, so it keeps polling for the node's
     lifetime rather than exiting once the recovery-time entries drain. *)
  let rec loop seen =
    let seen =
      if t.standby then []
      else begin
        (* A standby's in-doubt entries come from shipped prepares whose
           outcomes the primary resolves and ships; presumed-abort
           resolution here would diverge from the primary. The in-doubt
           sections of this node's own staged records are its TM's to
           resolve (Tm.recover_pending). *)
        let resolve p in_doubt =
          List.iter
            (fun ((_, coord) as entry) ->
              if not (is_local_name t coord) then
                resolve_one entry
                  ~commit:(fun id -> ignore (p.Tm.p_commit id))
                  ~abort:p.Tm.p_abort)
            in_doubt
        in
        resolve (Qm.participant t.s_qm) (Qm.in_doubt t.s_qm);
        resolve (Kvdb.participant t.s_kv) (Kvdb.in_doubt t.s_kv);
        release_leaked t seen
      end
    in
    Sched.sleep_background 1.0;
    loop seen
  in
  loop []

let janitor_daemon t () =
  let rec loop () =
    Sched.sleep_background t.stale_timeout;
    ignore (Qm.abort_stale t.s_qm ~older_than:t.stale_timeout);
    Qm.observe_queues t.s_qm;
    loop ()
  in
  loop ()

(* ---- boot ------------------------------------------------------------ *)

(* One log for the node's TM, QM and KV store, so a transaction touching
   only them commits with one record and one force. *)
let open_node ~triggers nd =
  let name = Net.node_name nd in
  let log = Node_log.open_log (Net.disk nd) ~name in
  let tm = Tm.attach log ~name in
  let qm = Qm.attach ~triggers log ~name:("qm@" ^ name) in
  let kv = Kvdb.attach log ~name:("kv@" ^ name) in
  (log, tm, qm, kv)

let boot_site t nd =
  let name = Net.node_name nd in
  let sched = Net.sched (Net.network nd) in
  let log, tm, qm, kv = open_node ~triggers:t.triggers nd in
  t.s_log <- log;
  t.s_tm <- tm;
  t.s_qm <- qm;
  t.s_kv <- kv;
  Qm.set_clock qm (fun () -> Sched.now sched);
  List.iter (fun (qn, attrs) -> Qm.create_queue qm ~attrs qn) t.queues;
  (* Kill-element must be able to abort the holding transaction, wherever
     its coordinator lives (paper §7). *)
  Qm.set_abort_callback qm (fun id ->
      if id.Txid.origin = name then ignore (Tm.force_abort tm id)
      else begin
        (* Gone before the call yields, so a prepare from the remote
           coordinator meanwhile votes no. *)
        (Qm.participant qm).Tm.p_abort id;
        try
          ignore
            (Net.call nd ~dst:id.Txid.origin ~service:"tm" (T_force_abort id))
        with Net.Rpc_timeout | Net.Service_error _ -> ()
      end);
  Tm.set_resolver tm
    ~locals:[ Qm.participant qm; Kvdb.participant kv ]
    (fun rm_name ->
      match local_participant t rm_name with
      | Some p -> Some p
      | None -> Some (remote_participant t ~rm_name));
  Net.add_service nd "qm" (clerk_service t);
  Net.add_service nd "qm-tx" (qm_tx_service t);
  Net.add_service nd "rm" (rm_service t);
  Net.add_service nd "tm" (tm_service t);
  Net.spawn_on nd ~name:(name ^ ":recovery") (fun () ->
      (* A standby's decisions are the primary's to deliver; promotion
         redelivers them (Ha). *)
      if not t.standby then Tm.recover_pending tm;
      resolver_daemon t ());
  Net.spawn_on nd ~name:(name ^ ":janitor") (janitor_daemon t);
  List.iter (fun f -> f t) t.extra_boot

let create ?(queues = []) ?(triggers = []) ?(stale_timeout = 30.0) nd =
  let log, tm, qm, kv = open_node ~triggers nd in
  let t =
    {
      site_node = nd;
      s_log = log;
      s_tm = tm;
      s_qm = qm;
      s_kv = kv;
      queues;
      triggers;
      stale_timeout;
      extra_boot = [];
      standby = false;
      aliases = [];
      candidates = (fun dst -> [ dst ]);
    }
  in
  (* The placeholder components above exist only to fill the record; boot
     immediately replaces them with properly wired ones. *)
  Net.set_boot nd (boot_site t);
  Net.boot nd;
  t

let on_boot t f =
  t.extra_boot <- t.extra_boot @ [ f ];
  f t

let crash t = Net.crash t.site_node
let restart t = Net.restart t.site_node
let crash_restart t ~after = Net.crash_restart t.site_node ~after

(* ---- transactions ---------------------------------------------------- *)

let with_txn t f =
  let txn = Tm.begin_txn t.s_tm in
  Tm.join txn (Qm.participant t.s_qm);
  Tm.join txn (Kvdb.participant t.s_kv);
  match f txn with
  | v -> begin
    match Tm.commit t.s_tm txn with
    | Tm.Committed -> v
    | Tm.Aborted -> raise (Aborted "commit refused")
  end
  | exception e ->
    Tm.abort t.s_tm txn;
    (match e with
    | Qm.Conflict m -> raise (Aborted ("qm: " ^ m))
    | Kvdb.Conflict m -> raise (Aborted ("kv: " ^ m))
    | Lock.Deadlock m -> raise (Aborted ("deadlock: " ^ m))
    | Lock.Cancelled -> raise (Aborted "cancelled")
    | e -> raise e)

let remote_enqueue t txn ~dst ~queue ?(props = []) ?(priority = 0) body =
  if is_local_name t dst then begin
    let h, _ =
      Qm.register t.s_qm ~queue ~registrant:("pipeline@" ^ queue) ~stable:false
    in
    ignore (Qm.enqueue t.s_qm (Tm.txn_id txn) h ~props ~priority body)
  end
  else begin
    (* The candidate that accepts the update becomes the 2PC participant;
       a standby refuses it. *)
    let rec attempt = function
      | [] -> raise (Aborted ("remote enqueue to " ^ dst ^ " failed"))
      | node :: rest -> (
        match
          Net.call t.site_node ~dst:node ~service:"qm-tx"
            (Q_enqueue_tx { id = Tm.txn_id txn; queue; props; priority; body })
        with
        | R_tx_eid { inc; _ } -> Tm.join txn (proxy t ~rm_name:("qm@" ^ node) ~inc)
        | _ -> raise (Aborted "remote enqueue: unexpected reply")
        | exception (Net.Rpc_timeout | Net.Service_error _) ->
          (* The remote may or may not hold the buffered op; if it does,
             its janitor will abort the stale workspace. *)
          attempt rest)
    in
    attempt (t.candidates dst)
  end
