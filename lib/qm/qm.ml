module Codec = Rrq_util.Codec
module Disk = Rrq_storage.Disk
module Node_log = Rrq_txn.Node_log
module Lock = Rrq_txn.Lock
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Cond = Rrq_sim.Cond

type wait = No_wait | Block | Timeout of float
type durability = Stable | Volatile | Main_memory

type attrs = {
  durability : durability;
  retry_limit : int;
  error_queue : string option;
  redirect_to : string option;
  alert_threshold : int option;
  strict_fifo : bool;
}

let default_attrs =
  {
    durability = Stable;
    retry_limit = 3;
    error_queue = None;
    redirect_to = None;
    alert_threshold = None;
    strict_fifo = false;
  }

type trigger = {
  on_queue : string;
  group_prop : string;
  complete : Element.t list -> bool;
  make : Element.t list -> (string * string * (string * string) list) list;
}

type last_op = {
  op_kind : [ `Enqueue | `Dequeue ];
  tag : string;
  op_eid : int64;
  element_copy : Element.t option;
}

type handle = { h_registrant : string; h_queue : string }

exception No_such_queue of string
exception Not_registered of string
exception Conflict of string
exception Stopped of string

(* Elements sorted by (priority desc, enq_time, eid): Map ascending order is
   dequeue order. The compare is written out monomorphically — the generic
   structural compare walks the tuple through the runtime representation on
   every Map operation, which shows up on the enqueue/dequeue hot path. *)
module Emap = Map.Make (struct
  type t = int * float * int64

  let compare (p1, t1, e1) (p2, t2, e2) =
    let c = Int.compare p1 p2 in
    if c <> 0 then c
    else
      let c = Float.compare t1 t2 in
      if c <> 0 then c else Int64.compare e1 e2
end)

(* Eid-keyed index: same reasoning, a direct int64 hash instead of the
   polymorphic one. *)
module Eidtbl = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash e = Int64.to_int e land max_int
end)

type queue = {
  qname : string;
  mutable qattrs : attrs;
  mutable elems : Element.t Emap.t;
  nonempty : Cond.t;
  mutable n_enq : int;
  mutable n_deq : int;
  mutable alerted : bool;
  mutable stopped : bool;
  (* Disk-resident queue page of a [Stable] queue, opened lazily on its
     first committed element update. [Main_memory] and [Volatile] queues
     never have one. *)
  mutable qstore : Disk.file option;
}

type reg = {
  r_registrant : string;
  r_queue : string;
  r_stable : bool;
  mutable r_last : last_op option;
}

type redo =
  | RCreate of string * attrs
  | REnq of string * Element.t
  | RDeq of int64
  | RKill of int64
  | RBump of int64
  | RMove_error of int64 * string * string
  | RRegister of string * string * bool
  | RDeregister of string * string
  | RSet_last of string * string * last_op option
  | RIncarnation
  | RDestroy of string
  | RSet_stopped of string * bool
  | RAlter of string * attrs

type ws_op = { op_redo : redo; op_errq : string option }

type ws = { mutable ops : ws_op list (* newest first *); mutable activity : float }
type prep = { p_coord : string; p_ops : ws_op list (* oldest first *) }

type t = {
  qm_name : string;
  log : Node_log.t;
  queues : (string, queue) Hashtbl.t;
  index : (string * Element.t) Eidtbl.t;
  regs : (string * string, reg) Hashtbl.t;
  locks : Lock.t;
  workspaces : (Txid.t, ws) Hashtbl.t;
  prepared : (Txid.t, prep) Hashtbl.t;
  (* Transactions committed for a remote coordinator whose decision record
     may not be durable yet: recovery there asks this QM. *)
  remembered : (Txid.t, unit) Hashtbl.t;
  triggers : (string, trigger list) Hashtbl.t;
  mutable incarnations : int;
  mutable next_eid_low : int64;
  mutable replaying : bool;
  mutable abort_cb : Txid.t -> unit;
  mutable alert_cb : string -> int -> unit;
  mutable clock : unit -> float;
  mutable internal_seq : float;
  mutable auto_n : int;
  (* Reused by the main-memory commit encode: one buffer per QM instead of
     one fresh encoder per section. Commit paths fill and hand it to
     [Node_log.commit] without yielding in between. *)
  scratch : Codec.encoder;
  auto_origin : string; (* qm_name ^ "!auto", hoisted off the commit path *)
  (* Page image buffer for the stable queue store's read-modify-write. *)
  page : Bytes.t;
  (* One-slot workspace cache: the single open transaction of the default
     auto-commit flow bypasses the Txid-keyed [workspaces] table entirely.
     Invariant: a cached workspace is NOT in the table. *)
  mutable ws_cache : (Txid.t * ws) option;
}

(* ---- codecs -------------------------------------------------------- *)

let encode_attrs e a =
  Codec.u8 e
    (match a.durability with Stable -> 0 | Volatile -> 1 | Main_memory -> 2);
  Codec.int e a.retry_limit;
  Codec.option Codec.string e a.error_queue;
  Codec.option Codec.string e a.redirect_to;
  Codec.option Codec.int e a.alert_threshold;
  Codec.bool e a.strict_fifo

let decode_attrs d =
  let durability =
    match Codec.get_u8 d with
    | 0 -> Stable
    | 2 -> Main_memory
    | _ -> Volatile
  in
  let retry_limit = Codec.get_int d in
  let error_queue = Codec.get_option Codec.get_string d in
  let redirect_to = Codec.get_option Codec.get_string d in
  let alert_threshold = Codec.get_option Codec.get_int d in
  let strict_fifo = Codec.get_bool d in
  { durability; retry_limit; error_queue; redirect_to; alert_threshold; strict_fifo }

let encode_last_op e l =
  Codec.u8 e (match l.op_kind with `Enqueue -> 0 | `Dequeue -> 1);
  Codec.string e l.tag;
  Codec.i64 e l.op_eid;
  Codec.option Element.encode e l.element_copy

let decode_last_op d =
  let op_kind = match Codec.get_u8 d with 0 -> `Enqueue | _ -> `Dequeue in
  let tag = Codec.get_string d in
  let op_eid = Codec.get_i64 d in
  let element_copy = Codec.get_option Element.decode d in
  { op_kind; tag; op_eid; element_copy }

let encode_redo e = function
  | RCreate (q, a) ->
    Codec.u8 e 1;
    Codec.string e q;
    encode_attrs e a
  | REnq (q, el) ->
    Codec.u8 e 2;
    Codec.string e q;
    Element.encode e el
  | RDeq eid ->
    Codec.u8 e 3;
    Codec.i64 e eid
  | RKill eid ->
    Codec.u8 e 4;
    Codec.i64 e eid
  | RBump eid ->
    Codec.u8 e 5;
    Codec.i64 e eid
  | RMove_error (eid, q, code) ->
    Codec.u8 e 6;
    Codec.i64 e eid;
    Codec.string e q;
    Codec.string e code
  | RRegister (r, q, stable) ->
    Codec.u8 e 7;
    Codec.string e r;
    Codec.string e q;
    Codec.bool e stable
  | RDeregister (r, q) ->
    Codec.u8 e 8;
    Codec.string e r;
    Codec.string e q
  | RSet_last (r, q, l) ->
    Codec.u8 e 9;
    Codec.string e r;
    Codec.string e q;
    Codec.option encode_last_op e l
  | RIncarnation -> Codec.u8 e 10
  | RDestroy q ->
    Codec.u8 e 11;
    Codec.string e q
  | RSet_stopped (q, flag) ->
    Codec.u8 e 12;
    Codec.string e q;
    Codec.bool e flag
  | RAlter (q, a) ->
    Codec.u8 e 13;
    Codec.string e q;
    encode_attrs e a

let decode_redo d =
  match Codec.get_u8 d with
  | 1 ->
    let q = Codec.get_string d in
    let a = decode_attrs d in
    RCreate (q, a)
  | 2 ->
    let q = Codec.get_string d in
    let el = Element.decode d in
    REnq (q, el)
  | 3 -> RDeq (Codec.get_i64 d)
  | 4 -> RKill (Codec.get_i64 d)
  | 5 -> RBump (Codec.get_i64 d)
  | 6 ->
    let eid = Codec.get_i64 d in
    let q = Codec.get_string d in
    let code = Codec.get_string d in
    RMove_error (eid, q, code)
  | 7 ->
    let r = Codec.get_string d in
    let q = Codec.get_string d in
    let stable = Codec.get_bool d in
    RRegister (r, q, stable)
  | 8 ->
    let r = Codec.get_string d in
    let q = Codec.get_string d in
    RDeregister (r, q)
  | 9 ->
    let r = Codec.get_string d in
    let q = Codec.get_string d in
    let l = Codec.get_option decode_last_op d in
    RSet_last (r, q, l)
  | 10 -> RIncarnation
  | 11 -> RDestroy (Codec.get_string d)
  | 12 ->
    let q = Codec.get_string d in
    let flag = Codec.get_bool d in
    RSet_stopped (q, flag)
  | 13 ->
    let q = Codec.get_string d in
    let a = decode_attrs d in
    RAlter (q, a)
  | n -> raise (Codec.Decode_error (Printf.sprintf "qm: bad redo tag %d" n))

let encode_ws_op e op =
  Codec.option Codec.string e op.op_errq;
  encode_redo e op.op_redo

let decode_ws_op d =
  let op_errq = Codec.get_option Codec.get_string d in
  let op_redo = decode_redo d in
  { op_redo; op_errq }

(* Section kinds (framing around redo lists). The resolutions of an
   in-doubt transaction carry only its txid: [k_commit] inside its
   coordinator's decision record, [k_commit_kept] for a remote
   coordinator's commit, remembered until a [k_forget] section (a list of
   txids), and [k_abort]. *)
let k_one_phase = 1
let k_prepare = 2
let k_commit = 3
let k_abort = 4
let k_now = 5
let k_commit_kept = 6
let k_forget = 7

let encode_record_into e kind txid_opt coordinator ops =
  Codec.u8 e kind;
  Codec.option Txid.encode e txid_opt;
  Codec.string e coordinator;
  Codec.list encode_ws_op e ops;
  e

let encode_resolution kind id =
  let e = Codec.encoder () in
  Codec.u8 e kind;
  Txid.encode e id;
  e

let encode_forget ids =
  let e = Codec.encoder () in
  Codec.u8 e k_forget;
  Codec.list Txid.encode e ids;
  e

(* ---- state helpers -------------------------------------------------- *)

let get_queue t qn =
  match Hashtbl.find_opt t.queues qn with
  | Some q -> q
  | None -> raise (No_such_queue qn)

let make_queue qname qattrs =
  {
    qname;
    qattrs;
    elems = Emap.empty;
    nonempty = Cond.create ();
    n_enq = 0;
    n_deq = 0;
    alerted = false;
    stopped = false;
    qstore = None;
  }

let default_error_queue q =
  match q.qattrs.error_queue with Some n -> n | None -> q.qname ^ ".err"

let ensure_queue t qn attrs =
  if not (Hashtbl.mem t.queues qn) then
    Hashtbl.replace t.queues qn (make_queue qn attrs)

let queue_depth q = Emap.cardinal q.elems

let check_alert t q =
  if not t.replaying then
    match q.qattrs.alert_threshold with
    | Some thr ->
      let d = queue_depth q in
      if d >= thr && not q.alerted then begin
        q.alerted <- true;
        t.alert_cb q.qname d
      end
      else if d < thr then q.alerted <- false
    | None -> ()

let remove_element t eid =
  match Eidtbl.find_opt t.index eid with
  | None -> None
  | Some (qn, el) ->
    let q = get_queue t qn in
    q.elems <- Emap.remove (Element.key el) q.elems;
    Eidtbl.remove t.index eid;
    (match q.qattrs.alert_threshold with
    | Some thr when queue_depth q < thr -> q.alerted <- false
    | _ -> ());
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.set_gauge
        (Printf.sprintf "qm.depth:%s/%s" t.qm_name q.qname)
        (float_of_int (queue_depth q));
    Some (q, el)

(* Insert, following redirection, then fire any completed trigger group. *)
let rec insert_element t qn el =
  let q = get_queue t qn in
  match q.qattrs.redirect_to with
  | Some target when target <> qn && Hashtbl.mem t.queues target ->
    insert_element t target el
  | _ ->
    q.elems <- Emap.add (Element.key el) el q.elems;
    Eidtbl.replace t.index el.Element.eid (q.qname, el);
    if not t.replaying then q.n_enq <- q.n_enq + 1;
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.set_gauge
        (Printf.sprintf "qm.depth:%s/%s" t.qm_name q.qname)
        (float_of_int (queue_depth q));
    Cond.signal q.nonempty;
    check_alert t q;
    check_triggers t q el

and check_triggers t q el =
  match Hashtbl.find_opt t.triggers q.qname with
  | None -> ()
  | Some trigs ->
    List.iter
      (fun trig ->
        match Element.prop el trig.group_prop with
        | None -> ()
        | Some gv ->
          let members =
            Emap.fold
              (fun _ m acc ->
                if m.Element.status = Element.Ready
                   && Element.prop m trig.group_prop = Some gv
                then m :: acc
                else acc)
              q.elems []
            |> List.rev
          in
          if members <> [] && trig.complete members then begin
            let outputs = trig.make members in
            List.iter
              (fun m -> ignore (remove_element t m.Element.eid))
              members;
            List.iter
              (fun (target, payload, props) ->
                let eid = fresh_eid t in
                let out =
                  Element.make ~eid ~payload ~props ~priority:0
                    ~enq_time:(now t)
                in
                insert_element t target out)
              outputs
          end)
      trigs

and fresh_eid t =
  t.next_eid_low <- Int64.add t.next_eid_low 1L;
  Int64.add (Int64.mul (Int64.of_int t.incarnations) 0x100000000L) t.next_eid_low

and now t =
  t.internal_seq <- t.internal_seq +. 1.0;
  t.clock () +. (t.internal_seq *. 1e-9)

(* Trigger outputs allocate eids at apply time. During replay this re-runs
   with the same incarnation counter state as the original run *only if*
   the original run allocated them in the same order — which holds because
   apply order equals log order. Post-crash incarnation bumps keep fresh
   eids unique anyway. *)

let apply t op =
  (* Operation counters live here (not in the workspace path) so they count
     committed effects only, and the [replaying] guard keeps recovery from
     double-counting a run's history. *)
  let live = not t.replaying && Rrq_obs.enabled () in
  match op with
  | RCreate (qn, a) -> ensure_queue t qn a
  | REnq (qn, el) ->
    if live then Rrq_obs.Metrics.inc ("qm.enqueues:" ^ t.qm_name);
    insert_element t qn el
  | RDeq eid -> begin
    match remove_element t eid with
    | Some (q, el) ->
      if not t.replaying then q.n_deq <- q.n_deq + 1;
      if live then begin
        Rrq_obs.Metrics.inc ("qm.dequeues:" ^ t.qm_name);
        Rrq_obs.Metrics.observe
          (Printf.sprintf "qm.wait:%s/%s" t.qm_name q.qname)
          (t.clock () -. el.Element.enq_time)
      end
    | None -> ()
  end
  | RKill eid ->
    if live then Rrq_obs.Metrics.inc ("qm.kills:" ^ t.qm_name);
    ignore (remove_element t eid)
  | RBump eid -> begin
    match Eidtbl.find_opt t.index eid with
    | Some (_, el) ->
      el.Element.delivery_count <- el.Element.delivery_count + 1;
      if live then begin
        Rrq_obs.Metrics.inc ("qm.bumps:" ^ t.qm_name);
        Rrq_obs.Metrics.observe
          ("qm.abort_count:" ^ t.qm_name)
          (float_of_int el.Element.delivery_count)
      end
    | None -> ()
  end
  | RMove_error (eid, errq, code) -> begin
    match remove_element t eid with
    | None -> ()
    | Some (_, el) ->
      el.Element.abort_code <- Some code;
      el.Element.status <- Element.Ready;
      if live then begin
        Rrq_obs.Metrics.inc ("qm.spills:" ^ t.qm_name);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Error_spill
             { qm = t.qm_name; error_queue = errq; eid; code })
      end;
      ensure_queue t errq
        { default_attrs with retry_limit = max_int; error_queue = Some errq };
      insert_element t errq el
  end
  | RRegister (r, qn, stable) ->
    if not (Hashtbl.mem t.regs (r, qn)) then
      Hashtbl.replace t.regs (r, qn)
        { r_registrant = r; r_queue = qn; r_stable = stable; r_last = None }
  | RDeregister (r, qn) -> Hashtbl.remove t.regs (r, qn)
  | RSet_last (r, qn, l) -> begin
    match Hashtbl.find_opt t.regs (r, qn) with
    | Some reg -> reg.r_last <- l
    | None -> ()
  end
  | RIncarnation ->
    t.incarnations <- t.incarnations + 1;
    t.next_eid_low <- 0L
  | RDestroy qn -> begin
    match Hashtbl.find_opt t.queues qn with
    | None -> ()
    | Some q ->
      Emap.iter (fun _ el -> Eidtbl.remove t.index el.Element.eid) q.elems;
      Hashtbl.remove t.queues qn;
      let doomed =
        Hashtbl.fold
          (fun key reg acc -> if reg.r_queue = qn then key :: acc else acc)
          t.regs []
      in
      List.iter (Hashtbl.remove t.regs) doomed
  end
  | RSet_stopped (qn, flag) -> begin
    match Hashtbl.find_opt t.queues qn with
    | Some q ->
      q.stopped <- flag;
      if not flag then Cond.broadcast q.nonempty
    | None -> ()
  end
  | RAlter (qn, a) -> begin
    match Hashtbl.find_opt t.queues qn with
    | Some q ->
      q.qattrs <- a;
      check_alert t q
    | None -> ()
  end

(* A redo is logged iff every queue it touches is recoverable (stable or
   main-memory); registration records are always logged. Volatile-queue
   updates are applied but never logged — they cost no forced writes and
   evaporate on crash. Main-memory queues are logged like stable ones (the
   redo record IS their durability), they just take the cheaper encode
   route at commit. *)
let redo_is_stable t = function
  | RCreate (_, _) -> true (* DDL is durable even for volatile queues *)
  | REnq (qn, _) -> begin
    match Hashtbl.find_opt t.queues qn with
    | Some q -> q.qattrs.durability <> Volatile
    | None -> true
  end
  | RDeq eid | RKill eid | RBump eid | RMove_error (eid, _, _) -> begin
    match Eidtbl.find_opt t.index eid with
    | Some (qn, _) -> (get_queue t qn).qattrs.durability <> Volatile
    | None -> true
  end
  | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation -> true
  | RDestroy _ | RSet_stopped _ | RAlter _ -> true

(* One classification pass per commit, resolving each op's queue durability
   exactly once (this replaced a [List.filter] + [List.for_all] pair that
   re-resolved every op). Returns:
   - [any_volatile]: some op touches a volatile queue, so the logged set is
     a strict subset of [ops] (recomputed with {!redo_is_stable} — rare);
   - [all_mm]: every op touches a main-memory queue, making the record
     eligible for the zero-copy scratch encode;
   - [pages]: the element updates on [Stable] queues that owe an in-place
     queue-page write, with their queue resolved before any effect is
     applied (a dequeue's index entry is gone after apply). *)
let classify_ops t ops =
  let any_volatile = ref false in
  let all_mm = ref (ops <> []) in
  let pages = ref [] in
  let on_queue qn op =
    match Hashtbl.find_opt t.queues qn with
    | None -> all_mm := false
    | Some q -> begin
      match q.qattrs.durability with
      | Main_memory -> ()
      | Volatile ->
        any_volatile := true;
        all_mm := false
      | Stable ->
        all_mm := false;
        pages := (qn, op.op_redo) :: !pages
    end
  in
  List.iter
    (fun op ->
      match op.op_redo with
      | REnq (qn, _) -> on_queue qn op
      | RDeq eid | RKill eid | RBump eid | RMove_error (eid, _, _) -> begin
        match Eidtbl.find_opt t.index eid with
        | Some (qn, _) -> on_queue qn op
        | None -> all_mm := false
      end
      | RCreate _ | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation
      | RDestroy _ | RSet_stopped _ | RAlter _ -> all_mm := false)
    ops;
  (!any_volatile, !all_mm, List.rev !pages)

(* Disk-resident queue modeling (paper secs. 2 and 10): every committed
   element update on a [Stable] queue pays a read-modify-write of the
   queue's 4 KiB page — read the page image back, splice the update in,
   write the full page. This is the stable-storage traffic a conventional
   disk-resident queue does on top of its redo record, and exactly what
   [Main_memory] queues skip: their only stable write is the redo record
   itself, and recovery rebuilds their state from the redo scan. The page
   store is overwrite-in-place (bounded, one page per queue), never synced
   as a log force, and ignored by recovery — the WAL stays authoritative. *)
let page_size = 4096

let qstore_file t qn q =
  match q.qstore with
  | Some f -> f
  | None ->
    let f = Disk.open_file (Node_log.disk t.log) (t.qm_name ^ ".qstore." ^ qn) in
    q.qstore <- Some f;
    f

let store_write t pages =
  List.iter
    (fun (qn, redo) ->
      match Hashtbl.find_opt t.queues qn with
      | None -> () (* queue destroyed in the same transaction *)
      | Some q ->
        let f = qstore_file t qn q in
        let e = t.scratch in
        Codec.reset e;
        (match redo with
        | REnq (_, el) ->
          Codec.u8 e 1;
          Element.encode e el
        | RDeq eid ->
          Codec.u8 e 2;
          Codec.i64 e eid
        | RKill eid ->
          Codec.u8 e 3;
          Codec.i64 e eid
        | RBump eid ->
          Codec.u8 e 4;
          Codec.i64 e eid
        | RMove_error (eid, _, _) ->
          Codec.u8 e 5;
          Codec.i64 e eid
        | RCreate _ | RRegister _ | RDeregister _ | RSet_last _
        | RIncarnation | RDestroy _ | RSet_stopped _ | RAlter _ -> ());
        (* read back ... *)
        Disk.read_page f t.page;
        (* ... modify in place ... *)
        let len = min (Codec.length e) page_size in
        Bytes.blit (Codec.bytes e) 0 t.page 0 len;
        (* ... write the whole page *)
        Disk.write_page f t.page)
    pages

(* One commit-point section, choosing the encode route. [all_mm] sections
   (only main-memory queues touched) are encoded into the QM's scratch
   buffer, which the node log copies straight into its record — no fresh
   encoder, no [to_string] (this is what "no stable read-back or copy on
   the hot path" buys in B1). Everything else keeps the historical
   allocate route. Both routes produce the same bytes, so replay cannot
   tell them apart. *)
let section t kind txid_opt coordinator ops ~all_mm =
  let e =
    if all_mm then begin
      Codec.reset t.scratch;
      t.scratch
    end
    else Codec.encoder ()
  in
  encode_record_into e kind txid_opt coordinator ops

let part ?redo ?(apply = ignore) ?(durable = ignore) () =
  { Node_log.kind = Node_log.Qm; redo; apply; durable }

(* ---- snapshot / recovery ------------------------------------------- *)

let encode_snapshot t =
  let e = Codec.encoder () in
  Codec.int e t.incarnations;
  (* recoverable queues only: volatile contents die with the process
     anyway. Main-memory queues must be included — the checkpoint deletes
     the segments holding their redo records, so the snapshot is the
     materialized prefix of exactly the log they recover from. *)
  let stable_queues =
    Hashtbl.fold
      (fun _ q acc -> if q.qattrs.durability <> Volatile then q :: acc else acc)
      t.queues []
    |> List.sort (fun a b -> compare a.qname b.qname)
  in
  Codec.int e (List.length stable_queues);
  List.iter
    (fun q ->
      Codec.string e q.qname;
      encode_attrs e q.qattrs;
      Codec.int e (Emap.cardinal q.elems);
      Emap.iter (fun _ el -> Element.encode e el) q.elems)
    stable_queues;
  let stopped_queues =
    Hashtbl.fold (fun qn q acc -> if q.stopped then qn :: acc else acc) t.queues []
  in
  Codec.list Codec.string e (List.sort compare stopped_queues);
  Codec.int e (Hashtbl.length t.regs);
  Hashtbl.iter
    (fun (r, qn) reg ->
      Codec.string e r;
      Codec.string e qn;
      Codec.bool e reg.r_stable;
      Codec.option encode_last_op e reg.r_last)
    t.regs;
  Codec.int e (Hashtbl.length t.prepared);
  Hashtbl.iter
    (fun id p ->
      Txid.encode e id;
      Codec.string e p.p_coord;
      Codec.list encode_ws_op e
        (List.filter (fun op -> redo_is_stable t op.op_redo) p.p_ops))
    t.prepared;
  Codec.list Txid.encode e (Hashtbl.fold (fun id () acc -> id :: acc) t.remembered []);
  Codec.to_string e

let restore_snapshot t snap =
  let d = Codec.decoder snap in
  t.incarnations <- Codec.get_int d;
  let nq = Codec.get_int d in
  for _ = 1 to nq do
    let qn = Codec.get_string d in
    let a = decode_attrs d in
    let q = make_queue qn a in
    Hashtbl.replace t.queues qn q;
    let ne = Codec.get_int d in
    for _ = 1 to ne do
      let el = Element.decode d in
      q.elems <- Emap.add (Element.key el) el q.elems;
      Eidtbl.replace t.index el.Element.eid (qn, el)
    done
  done;
  let stopped_queues = Codec.get_list Codec.get_string d in
  List.iter
    (fun qn ->
      match Hashtbl.find_opt t.queues qn with
      | Some q -> q.stopped <- true
      | None -> ())
    stopped_queues;
  let nr = Codec.get_int d in
  for _ = 1 to nr do
    let r = Codec.get_string d in
    let qn = Codec.get_string d in
    let stable = Codec.get_bool d in
    let last = Codec.get_option decode_last_op d in
    Hashtbl.replace t.regs (r, qn)
      { r_registrant = r; r_queue = qn; r_stable = stable; r_last = last }
  done;
  let np = Codec.get_int d in
  for _ = 1 to np do
    let id = Txid.decode d in
    let coord = Codec.get_string d in
    let ops = Codec.get_list decode_ws_op d in
    Hashtbl.replace t.prepared id { p_coord = coord; p_ops = ops }
  done;
  List.iter
    (fun id -> Hashtbl.replace t.remembered id ())
    (Codec.get_list Txid.decode d)

(* Apply an in-doubt transaction, remembering it for [k_commit_kept]. *)
let resolve_commit t id ~keep =
  match Hashtbl.find_opt t.prepared id with
  | Some p ->
    List.iter (fun op -> apply t op.op_redo) p.p_ops;
    Hashtbl.remove t.prepared id;
    if keep then Hashtbl.replace t.remembered id ()
  | None -> ()

let replay_record t payload =
  let d = Codec.decoder payload in
  let kind = Codec.get_u8 d in
  if kind = k_forget then
    List.iter (Hashtbl.remove t.remembered) (Codec.get_list Txid.decode d)
  else if kind = k_commit || kind = k_commit_kept then
    resolve_commit t (Txid.decode d) ~keep:(kind = k_commit_kept)
  else if kind = k_abort then Hashtbl.remove t.prepared (Txid.decode d)
  else begin
    let txid = Codec.get_option Txid.decode d in
    let coordinator = Codec.get_string d in
    let ops = Codec.get_list decode_ws_op d in
    if kind = k_one_phase || kind = k_now then
      List.iter (fun op -> apply t op.op_redo) ops
    else
      match txid with
      | Some id when kind = k_prepare ->
        Hashtbl.replace t.prepared id { p_coord = coordinator; p_ops = ops }
      | _ -> failwith (Printf.sprintf "qm: bad record kind %d" kind)
  end

(* Re-assert the volatile exclusions of in-doubt transactions: dequeued
   elements stay locked, strict-FIFO queue locks are re-taken. *)
let relock_in_doubt t =
  Hashtbl.iter
    (fun id p ->
      List.iter
        (fun op ->
          match op.op_redo with
          | RDeq eid -> begin
            match Eidtbl.find_opt t.index eid with
            | Some (qn, el) ->
              el.Element.status <- Element.Deq_pending id;
              let q = get_queue t qn in
              if q.qattrs.strict_fifo then
                Lock.acquire t.locks id ~key:("q:" ^ qn) Lock.X
            | None -> ()
          end
          | RCreate _ | REnq _ | RKill _ | RBump _ | RMove_error _
          | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation
          | RDestroy _ | RSet_stopped _ | RAlter _ -> ())
        p.p_ops)
    t.prepared

(* The logged subset of [ops] (volatile-queue updates are applied but
   never logged) as a part of a commit record: its section, its in-memory
   effects, and the in-place page writes that follow the force
   (write-ahead rule). A part held across a yield must not use the
   scratch buffer ([scratch:false]). *)
let commit_part t ?txid ?(scratch = true) ops =
  let any_volatile, all_mm, pages = classify_ops t ops in
  let all_mm = all_mm && scratch in
  let stable =
    if any_volatile then List.filter (fun op -> redo_is_stable t op.op_redo) ops
    else ops
  in
  let redo =
    if stable = [] then None
    else
      let kind = if txid = None then k_now else k_one_phase in
      Some (section t kind txid "" stable ~all_mm)
  in
  part ?redo
    ~apply:(fun () -> List.iter (fun op -> apply t op.op_redo) ops)
    ~durable:(fun () -> if pages <> [] then store_write t pages)
    ()

let log_now t ops = Node_log.commit t.log [ commit_part t ops ]

(* The QM's half of HA: a standby replays shipped sections and installs a
   primary's image. [replaying] suppresses alert callbacks and trigger side
   effects exactly as recovery replay does. No locks are re-asserted: a
   standby runs no competing transactions. *)
let replaying t f =
  t.replaying <- true;
  Fun.protect ~finally:(fun () -> t.replaying <- false) f

let install t snap =
  Hashtbl.reset t.queues;
  Eidtbl.reset t.index;
  Hashtbl.reset t.regs;
  Hashtbl.reset t.workspaces;
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.remembered;
  t.ws_cache <- None;
  Option.iter (fun snap -> replaying t (fun () -> restore_snapshot t snap)) snap

let attach ?(triggers = []) log ~name:qm_name =
  let t =
    {
      qm_name;
      log;
      queues = Hashtbl.create 16;
      index = Eidtbl.create 256;
      regs = Hashtbl.create 32;
      locks = Lock.create ~name:"qm" ();
      workspaces = Hashtbl.create 16;
      prepared = Hashtbl.create 8;
      remembered = Hashtbl.create 8;
      triggers = Hashtbl.create 4;
      incarnations = 0;
      next_eid_low = 0L;
      replaying = true;
      abort_cb = (fun _ -> ());
      alert_cb = (fun _ _ -> ());
      clock = (fun () -> 0.0);
      internal_seq = 0.0;
      auto_n = 0;
      scratch = Codec.encoder ();
      auto_origin = qm_name ^ "!auto";
      page = Bytes.make page_size '\000';
      ws_cache = None;
    }
  in
  List.iter
    (fun trig ->
      let cur =
        match Hashtbl.find_opt t.triggers trig.on_queue with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace t.triggers trig.on_queue (cur @ [ trig ]))
    triggers;
  let snap, records =
    Node_log.attach log Node_log.Qm
      {
        Node_log.snapshot = (fun () -> encode_snapshot t);
        replay = (fun r -> replaying t (fun () -> replay_record t r));
        install = install t;
      }
  in
  Option.iter (restore_snapshot t) snap;
  List.iter (replay_record t) records;
  relock_in_doubt t;
  t.replaying <- false;
  (* Bump the incarnation durably so eids and auto-txids never repeat. *)
  log_now t [ { op_redo = RIncarnation; op_errq = None } ];
  t

let open_qm ?triggers disk ~name =
  attach ?triggers (Node_log.open_log disk ~name) ~name

let name t = t.qm_name

(* ---- DDL ------------------------------------------------------------ *)

let create_queue t ?(attrs = default_attrs) qn =
  if not (Hashtbl.mem t.queues qn) then
    log_now t [ { op_redo = RCreate (qn, attrs); op_errq = None } ]

let alter_queue t qn attrs =
  let q = get_queue t qn in
  if q.qattrs.durability <> attrs.durability then
    invalid_arg "Qm.alter_queue: durability class is immutable";
  log_now t [ { op_redo = RAlter (qn, attrs); op_errq = None } ]

let destroy_queue t qn =
  ignore (get_queue t qn);
  log_now t [ { op_redo = RDestroy qn; op_errq = None } ]

let stop_queue t qn =
  ignore (get_queue t qn);
  log_now t [ { op_redo = RSet_stopped (qn, true); op_errq = None } ]

let start_queue t qn =
  ignore (get_queue t qn);
  log_now t [ { op_redo = RSet_stopped (qn, false); op_errq = None } ]

let queue_stopped t qn = (get_queue t qn).stopped

let queue_exists t qn = Hashtbl.mem t.queues qn

let queue_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.queues [] |> List.sort compare

let depth t qn = queue_depth (get_queue t qn)

(* ---- registration ---------------------------------------------------- *)

let register t ~queue ~registrant ~stable =
  if not (Hashtbl.mem t.queues queue) then raise (No_such_queue queue);
  let h = { h_registrant = registrant; h_queue = queue } in
  match Hashtbl.find_opt t.regs (registrant, queue) with
  | Some reg -> (h, if reg.r_stable then reg.r_last else None)
  | None ->
    log_now t [ { op_redo = RRegister (registrant, queue, stable); op_errq = None } ];
    (h, None)

let reg_of t h =
  match Hashtbl.find_opt t.regs (h.h_registrant, h.h_queue) with
  | Some reg -> reg
  | None ->
    raise (Not_registered (Printf.sprintf "%s@%s" h.h_registrant h.h_queue))

(* Read-only: no registration is created and nothing is logged, so a
   peer repository can be probed for duplicate-suppression evidence
   (shard registration pull) without perturbing its durable state. *)
let lookup_registration t ~queue ~registrant =
  match Hashtbl.find_opt t.regs (registrant, queue) with
  | Some reg when reg.r_stable -> reg.r_last
  | _ -> None

let deregister t h =
  ignore (reg_of t h);
  log_now t
    [ { op_redo = RDeregister (h.h_registrant, h.h_queue); op_errq = None } ]

let handle_queue h = h.h_queue
let handle_registrant h = h.h_registrant

(* ---- workspaces ------------------------------------------------------ *)

(* All workspace access goes through these: the one-slot [ws_cache] holds
   the most recent transaction's workspace OUTSIDE the table, so the
   common one-open-transaction flow (auto-commit) never pays a Txid-keyed
   hash. A second concurrent transaction spills the cached one back into
   the table. *)
let ws_find t id =
  match t.ws_cache with
  | Some (cid, ws) when Txid.equal cid id -> Some ws
  | _ -> Hashtbl.find_opt t.workspaces id

let ws_mem t id =
  match ws_find t id with Some _ -> true | None -> false

let ws_remove t id =
  match t.ws_cache with
  | Some (cid, _) when Txid.equal cid id -> t.ws_cache <- None
  | _ -> Hashtbl.remove t.workspaces id

let ws_fold t f acc =
  let acc = Hashtbl.fold f t.workspaces acc in
  match t.ws_cache with Some (id, ws) -> f id ws acc | None -> acc

let ws_of t id =
  match ws_find t id with
  | Some ws ->
    ws.activity <- t.clock ();
    ws
  | None ->
    let ws = { ops = []; activity = t.clock () } in
    (match t.ws_cache with
    | Some (cid, cws) -> Hashtbl.replace t.workspaces cid cws
    | None -> ());
    t.ws_cache <- Some (id, ws);
    ws

let add_op t id op =
  let ws = ws_of t id in
  ws.ops <- op :: ws.ops

(* ---- data manipulation ----------------------------------------------- *)

let enqueue t id h ?tag ?(props = []) ?(priority = 0) payload =
  let reg = reg_of t h in
  if (get_queue t h.h_queue).stopped then raise (Stopped h.h_queue);
  let eid = fresh_eid t in
  let el = Element.make ~eid ~payload ~props ~priority ~enq_time:(now t) in
  add_op t id { op_redo = REnq (h.h_queue, el); op_errq = None };
  (match tag with
  | Some tag when reg.r_stable ->
    add_op t id
      {
        op_redo =
          RSet_last
            ( h.h_registrant,
              h.h_queue,
              Some { op_kind = `Enqueue; tag; op_eid = eid; element_copy = Some el }
            );
        op_errq = None;
      }
  | _ -> ());
  if Rrq_obs.enabled () then
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Enqueue
         { qm = t.qm_name; queue = h.h_queue; eid; txid = Txid.to_string id });
  eid

let select_ready ?rank q filter =
  match rank with
  | None ->
    (* queue order: first ready match wins *)
    let found = ref None in
    (try
       Emap.iter
         (fun _ el ->
           if el.Element.status = Element.Ready && Filter.matches filter el
           then begin
             found := Some el;
             raise Exit
           end)
         q.elems
     with Exit -> ());
    !found
  | Some rank ->
    (* content-based scheduling: highest rank among ready matches (paper
       11: "highest dollar amount first") *)
    Emap.fold
      (fun _ el best ->
        if el.Element.status = Element.Ready && Filter.matches filter el then begin
          match best with
          | Some (b, _) when b >= rank el -> best
          | _ -> Some (rank el, el)
        end
        else best)
      q.elems None
    |> Option.map snd

(* [reg] is the caller's already-resolved registration for [h] — dequeue
   validates it up front, so resolving it again here would be a second
   hash of the same key on every dequeue. *)
let take t id h ~reg ?tag ?errq q el =
  el.Element.status <- Element.Deq_pending id;
  add_op t id { op_redo = RDeq el.Element.eid; op_errq = errq };
  (match tag with
  | Some tag when reg.r_stable ->
    add_op t id
      {
        op_redo =
          RSet_last
            ( h.h_registrant,
              h.h_queue,
              Some
                {
                  op_kind = `Dequeue;
                  tag;
                  op_eid = el.Element.eid;
                  element_copy = Some el;
                } );
        op_errq = None;
      }
  | _ -> ());
  ignore q;
  if Rrq_obs.enabled () then
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Dequeue
         {
           qm = t.qm_name;
           queue = h.h_queue;
           eid = el.Element.eid;
           txid = Txid.to_string id;
         });
  el

let with_lock_conflicts f =
  try f () with
  | Lock.Deadlock msg -> raise (Conflict ("deadlock: " ^ msg))
  | Lock.Cancelled -> raise (Conflict "cancelled")

let dequeue t id h ?tag ?(filter = Filter.True) ?rank ?error_queue wait =
  let reg = reg_of t h in
  let q = get_queue t h.h_queue in
  if q.stopped then raise (Stopped h.h_queue);
  if q.qattrs.strict_fifo then
    with_lock_conflicts (fun () ->
        Lock.acquire t.locks id ~key:("q:" ^ q.qname) Lock.X);
  let deadline =
    match wait with Timeout d -> Some (t.clock () +. d) | No_wait | Block -> None
  in
  let rec attempt () =
    match select_ready ?rank q filter with
    | Some el -> Some (take t id h ~reg ?tag ?errq:error_queue q el)
    | None -> begin
      match wait with
      | No_wait -> None
      | Block ->
        Cond.wait q.nonempty;
        attempt ()
      | Timeout _ -> begin
        match deadline with
        | Some dl when t.clock () < dl ->
          if Cond.wait_timeout q.nonempty (dl -. t.clock ()) then attempt ()
          else None
        | _ -> None
      end
    end
  in
  attempt ()

let dequeue_set t id hs ?tag ?(filter = Filter.True) wait =
  let queues =
    List.map (fun h -> (h, reg_of t h, get_queue t h.h_queue)) hs
  in
  let deadline =
    match wait with Timeout d -> Some (t.clock () +. d) | No_wait | Block -> None
  in
  let rec attempt () =
    let best =
      List.fold_left
        (fun acc (h, reg, q) ->
          match select_ready q filter with
          | None -> acc
          | Some el -> begin
            match acc with
            | Some (_, _, _, best_el)
              when Element.key best_el <= Element.key el -> acc
            | _ -> Some (h, reg, q, el)
          end)
        None queues
    in
    match best with
    | Some (h, reg, q, el) -> Some (h, take t id h ~reg ?tag q el)
    | None -> begin
      let conds = List.map (fun (_, _, q) -> q.nonempty) queues in
      match wait with
      | No_wait -> None
      | Block ->
        ignore (Cond.wait_any conds);
        attempt ()
      | Timeout _ -> begin
        match deadline with
        | Some dl when t.clock () < dl ->
          if Cond.wait_any ~timeout:(dl -. t.clock ()) conds then attempt ()
          else attempt () (* deadline re-checked at loop head *)
        | _ -> None
      end
    end
  in
  attempt ()

let read t eid =
  match Eidtbl.find_opt t.index eid with
  | Some (qn, el) ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Read { qm = t.qm_name; queue = qn; found = true });
    Some el
  | None ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Read { qm = t.qm_name; queue = ""; found = false });
    None

let read_last t h =
  match (reg_of t h).r_last with
  | Some { element_copy; _ } -> element_copy
  | None -> None

(* Refresh per-queue depth and head-of-line age gauges; called periodically
   (the site janitor) and before metric dumps, since age only decays as the
   clock advances, not on queue activity. *)
let observe_queues t =
  if Rrq_obs.enabled () then
    Hashtbl.iter
      (fun qn q ->
        Rrq_obs.Metrics.set_gauge
          (Printf.sprintf "qm.depth:%s/%s" t.qm_name qn)
          (float_of_int (queue_depth q));
        let age =
          match Emap.min_binding_opt q.elems with
          | Some (_, el) -> t.clock () -. el.Element.enq_time
          | None -> 0.0
        in
        Rrq_obs.Metrics.set_gauge (Printf.sprintf "qm.age:%s/%s" t.qm_name qn) age)
      t.queues

(* ---- commitment ------------------------------------------------------ *)

let release_locks t id =
  Lock.cancel_waits t.locks id;
  Lock.release_all t.locks id

(* The workspace as a part of a commit record; the locks go once it is
   durable. *)
let stage t id =
  match ws_find t id with
  | None -> part ~durable:(fun () -> release_locks t id) ()
  | Some ws ->
    ws_remove t id;
    let p = commit_part t ~txid:id (List.rev ws.ops) in
    { p with durable = (fun () -> p.durable (); release_locks t id) }

let commit t id = Node_log.commit t.log [ stage t id ]

(* The workspace as an in-doubt section, for a parallel commit's staged
   record or a prepare record of its own. Locks stay held. *)
let prepare_part t id ~coordinator =
  match ws_find t id with
  | None -> part ()
  | Some ws ->
    let ops = List.rev ws.ops in
    ws_remove t id;
    let any_volatile, all_mm, _pages = classify_ops t ops in
    let stable =
      if any_volatile then
        List.filter (fun op -> redo_is_stable t op.op_redo) ops
      else ops
    in
    part
      ~redo:(section t k_prepare (Some id) coordinator stable ~all_mm)
      ~apply:(fun () ->
        Hashtbl.replace t.prepared id { p_coord = coordinator; p_ops = ops })
      ()

(* A coordinator asks only an RM that did work, so a missing workspace (a
   crash or the janitor discarded it) votes no. *)
let prepare t id ~coordinator =
  if ws_mem t id then begin
    Node_log.commit t.log [ prepare_part t id ~coordinator ];
    true
  end
  else Hashtbl.mem t.prepared id

(* Commit an in-doubt transaction as a part; [keep] remembers it. *)
let resolve_part t id ~keep =
  match Hashtbl.find_opt t.prepared id with
  | None -> part ~durable:(fun () -> release_locks t id) ()
  | Some p ->
    (* Page targets must be resolved before apply removes dequeued
       elements from the index. *)
    let _, _, pages = classify_ops t p.p_ops in
    part
      ~redo:(encode_resolution (if keep then k_commit_kept else k_commit) id)
      ~apply:(fun () -> resolve_commit t id ~keep)
      ~durable:(fun () ->
        if pages <> [] then store_write t pages;
        release_locks t id)
      ()

let decide_part t id = resolve_part t id ~keep:false

let observe_remembered t =
  if Rrq_obs.enabled () then
    Rrq_obs.Metrics.set_gauge ("rm.remembered:" ^ t.qm_name)
      (float_of_int (Hashtbl.length t.remembered))

(* The coordinator's decision record may not be durable yet: keep the txid
   until it says so ([forget]). *)
let commit_prepared t id =
  Node_log.commit t.log [ resolve_part t id ~keep:true ];
  observe_remembered t

let forget t ids =
  match List.filter (Hashtbl.mem t.remembered) ids with
  | [] -> ()
  | known ->
    Node_log.append t.log
      [
        part
          ~redo:(encode_forget known)
          ~apply:(fun () -> List.iter (Hashtbl.remove t.remembered) known)
          ();
      ];
    observe_remembered t

let remembered t = Hashtbl.fold (fun id () acc -> id :: acc) t.remembered []
let incarnation t = t.incarnations

(* Returning a dequeued element to its queue after an abort: bump its retry
   count durably; if the limit is hit, move it to the error queue instead
   (§4.2). *)
let restore_element t op =
  match op.op_redo with
  | RDeq eid -> begin
    match Eidtbl.find_opt t.index eid with
    | None -> []
    | Some (qn, el) ->
      let q = get_queue t qn in
      el.Element.status <- Element.Ready;
      Cond.signal q.nonempty;
      let bump = { op_redo = RBump eid; op_errq = None } in
      if el.Element.delivery_count + 1 >= q.qattrs.retry_limit then begin
        let errq =
          match op.op_errq with Some e -> e | None -> default_error_queue q
        in
        let code =
          Printf.sprintf "aborted %d times" (el.Element.delivery_count + 1)
        in
        [ bump; { op_redo = RMove_error (eid, errq, code); op_errq = None } ]
      end
      else [ bump ]
  end
  | RCreate _ | REnq _ | RKill _ | RBump _ | RMove_error _ | RRegister _
  | RDeregister _ | RSet_last _ | RIncarnation | RDestroy _ | RSet_stopped _
  | RAlter _ ->
    []

let abort t id =
  let unwritten =
    match ws_find t id with
    | Some ws ->
      ws_remove t id;
      List.rev ws.ops
    | None -> []
  in
  let resolved, prepared_ops =
    match Hashtbl.find_opt t.prepared id with
    | Some p ->
      ( [
          part
            ~redo:(encode_resolution k_abort id)
            ~apply:(fun () -> Hashtbl.remove t.prepared id)
            ();
        ],
        p.p_ops )
    | None -> ([], [])
  in
  (* The abort record and the durable fixups of every returned element
     are one record. *)
  let fixups =
    match List.concat_map (restore_element t) (unwritten @ prepared_ops) with
    | [] -> []
    | fixups -> [ commit_part t fixups ]
  in
  Node_log.commit t.log (resolved @ fixups);
  release_locks t id

(* A recovering coordinator's question; [`Unknown] discards the
   workspace, so a late prepare votes no. *)
let status t id =
  if Hashtbl.mem t.prepared id then `Prepared
  else if Hashtbl.mem t.remembered id then `Committed
  else begin
    if ws_mem t id then abort t id;
    `Unknown
  end

let participant t =
  {
    Tm.part_name = t.qm_name;
    p_local =
      Some
        {
          Tm.l_log = t.log;
          l_stage = stage t;
          l_prepare = prepare_part t;
          l_decide = decide_part t;
        };
    p_prepare =
      (fun id ~coordinator ->
        let yes = prepare t id ~coordinator in
        fun () -> yes);
    p_commit =
      (fun id ->
        commit_prepared t id;
        true);
    p_abort = (fun id -> abort t id);
    p_has_work = (fun id -> ws_mem t id || Hashtbl.mem t.prepared id);
    p_status = (fun id -> Some (status t id));
    p_forget = forget t;
  }

let auto_commit t f =
  t.auto_n <- t.auto_n + 1;
  let id = Txid.make ~origin:t.auto_origin ~inc:t.incarnations ~n:t.auto_n in
  let t0 = if Rrq_obs.enabled () then t.clock () else 0.0 in
  match f id with
  | v ->
    (* Only count transactions that buffered work: polling an empty queue
       auto-commits too, and counting those would skew commit rates. *)
    let worked = ws_mem t id in
    commit t id;
    if worked && Rrq_obs.enabled () then begin
      Rrq_obs.Metrics.inc ("qm.auto_commits:" ^ t.qm_name);
      Rrq_obs.Metrics.observe
        ("qm.commit.latency:" ^ t.qm_name)
        (t.clock () -. t0)
    end;
    v
  | exception e ->
    abort t id;
    raise e

let abort_stale t ~older_than =
  let cutoff = t.clock () -. older_than in
  let stale =
    ws_fold t
      (fun id ws acc -> if ws.activity < cutoff then id :: acc else acc)
      []
  in
  (* The owner hears first: an owner on this node must not commit without
     the workspace while its abort record is being forced. *)
  List.iter
    (fun id ->
      t.abort_cb id;
      abort t id)
    stale;
  List.length stale

let kill_element t eid =
  match Eidtbl.find_opt t.index eid with
  | None -> false
  | Some (_, el) ->
    (match el.Element.status with
    | Element.Deq_pending id -> t.abort_cb id
    | Element.Ready -> ());
    (* The abort may have moved it to an error queue; chase the eid. *)
    if Eidtbl.mem t.index eid then begin
      log_now t [ { op_redo = RKill eid; op_errq = None } ];
      true
    end
    else false

let kill_where t filter =
  let victims =
    Eidtbl.fold
      (fun eid (_, el) acc -> if Filter.matches filter el then eid :: acc else acc)
      t.index []
  in
  List.fold_left
    (fun n eid -> if kill_element t eid then n + 1 else n)
    0 victims

(* ---- callbacks / maintenance ---------------------------------------- *)

let in_doubt t =
  Hashtbl.fold (fun id p acc -> (id, p.p_coord) :: acc) t.prepared []

let set_abort_callback t f = t.abort_cb <- f
let set_alert_callback t f = t.alert_cb <- f
let set_clock t f = t.clock <- f

let checkpoint t = Node_log.checkpoint t.log
let log t = t.log

(* Durably open a fresh incarnation without reopening the repository — the
   promotion path: a new primary must never mint eids or auto-txids that
   collide with ones the old primary handed out. *)
let bump_incarnation t =
  log_now t [ { op_redo = RIncarnation; op_errq = None } ]

let live_log_bytes t = Node_log.live_log_bytes t.log

let counts t qn =
  let q = get_queue t qn in
  (q.n_enq, q.n_deq)

let elements t qn =
  let q = get_queue t qn in
  Emap.fold (fun _ el acc -> el :: acc) q.elems [] |> List.rev
