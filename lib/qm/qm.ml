module Codec = Rrq_util.Codec
module Node_log = Rrq_txn.Node_log
module Lock = Rrq_txn.Lock
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Cond = Rrq_sim.Cond

type wait = No_wait | Block | Timeout of float
type durability = Stable | Volatile

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
module Key = struct
  type t = int * float * int64

  let compare (p1, t1, e1) (p2, t2, e2) =
    let c = Int.compare p1 p2 in
    if c <> 0 then c
    else
      let c = Float.compare t1 t2 in
      if c <> 0 then c else Int64.compare e1 e2
end

module Emap = Map.Make (Key)

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
  mutable picky : int; (* waiters that may pass a ready element over *)
  mutable n_enq : int;
  mutable n_deq : int;
  mutable alerted : bool;
  mutable stopped : bool;
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
  | RMove_error of int64 * string * string * Element.t option
  | RRegister of string * string * bool
  | RDeregister of string * string
  | RSet_last of string * string * last_op option
  | RIncarnation
  | RDestroy of string
  | RSet_stopped of string * bool
  | RAlter of string * attrs
  | RStale of int64

(* A logged update; a dequeue carries the error queue its caller named. *)
type op = { op_redo : redo; op_errq : string option }

let plain redo = { op_redo = redo; op_errq = None }

(* The queue manager's state under Rm.Make: its transactional plumbing
   (workspaces, in-doubt and remembered tables, records) is Rm's. *)
type state = {
  qm_name : string;
  queues : (string, queue) Hashtbl.t;
  index : (string * Element.t) Eidtbl.t;
  regs : (string * string, reg) Hashtbl.t;
  locks : Lock.t;
  triggers : (string, trigger list) Hashtbl.t;
  mutable incarnations : int;
  mutable next_eid_low : int64;
  mutable abort_cb : Txid.t -> unit;
  mutable alert_cb : string -> int -> unit;
  mutable clock : unit -> float;
  mutable internal_seq : float;
  mutable auto_n : int;
  auto_origin : string; (* qm_name ^ "!auto", hoisted off the commit path *)
}

(* ---- codecs -------------------------------------------------------- *)

let encode_attrs e a =
  Codec.u8 e (match a.durability with Stable -> 0 | Volatile -> 1);
  Codec.int e a.retry_limit;
  Codec.option Codec.string e a.error_queue;
  Codec.option Codec.string e a.redirect_to;
  Codec.option Codec.int e a.alert_threshold;
  Codec.bool e a.strict_fifo

let decode_attrs d =
  let durability =
    match Codec.get_u8 d with
    | 0 -> Stable
    | 1 -> Volatile
    | n -> raise (Codec.Decode_error (Printf.sprintf "qm: bad durability %d" n))
  in
  let retry_limit = Codec.get_int d in
  let error_queue = Codec.get_option Codec.get_string d in
  let redirect_to = Codec.get_option Codec.get_string d in
  let alert_threshold = Codec.get_option Codec.get_int d in
  let strict_fifo = Codec.get_bool d in
  { durability; retry_limit; error_queue; redirect_to; alert_threshold; strict_fifo }

(* The element copy is 0 (none), 1 (a full copy) or 2 (the element
   [op_eid] itself). A tagged dequeue from a [Stable] queue logs byte 2:
   its element's REnq is in the log already, and the RSet_last record
   precedes the RDeq that removes it, so apply resolves the copy from the
   index. In memory that record's dequeue carries [element_copy = None];
   once applied, a registration holds the resolved copy, and snapshots
   write it in full. *)
let encode_last_op e l =
  Codec.u8 e (match l.op_kind with `Enqueue -> 0 | `Dequeue -> 1);
  Codec.string e l.tag;
  Codec.i64 e l.op_eid;
  match (l.op_kind, l.element_copy) with
  | `Dequeue, None -> Codec.u8 e 2
  | _, copy -> Codec.option Element.encode e copy

let decode_last_op d =
  let op_kind = match Codec.get_u8 d with 0 -> `Enqueue | _ -> `Dequeue in
  let tag = Codec.get_string d in
  let op_eid = Codec.get_i64 d in
  let element_copy =
    match Codec.get_u8 d with
    | 0 | 2 -> None
    | 1 -> Some (Element.decode d)
    | n -> raise (Codec.Decode_error (Printf.sprintf "qm: bad element copy %d" n))
  in
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
  | RMove_error (eid, q, code, copy) ->
    (* Tag 15 carries the element: a spill from an unlogged queue. *)
    Codec.u8 e (if copy = None then 6 else 15);
    Codec.i64 e eid;
    Codec.string e q;
    Codec.string e code;
    Option.iter (Element.encode e) copy
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
  | RStale eid ->
    Codec.u8 e 14;
    Codec.i64 e eid

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
  | (6 | 15) as tag ->
    let eid = Codec.get_i64 d in
    let q = Codec.get_string d in
    let code = Codec.get_string d in
    let copy = if tag = 15 then Some (Element.decode d) else None in
    RMove_error (eid, q, code, copy)
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
  | 14 -> RStale (Codec.get_i64 d)
  | n -> raise (Codec.Decode_error (Printf.sprintf "qm: bad redo tag %d" n))

let encode_op e op =
  Codec.option Codec.string e op.op_errq;
  encode_redo e op.op_redo

let decode_op d =
  let op_errq = Codec.get_option Codec.get_string d in
  let op_redo = decode_redo d in
  { op_redo; op_errq }

(* ---- state helpers -------------------------------------------------- *)

let get_queue s qn =
  match Hashtbl.find_opt s.queues qn with
  | Some q -> q
  | None -> raise (No_such_queue qn)

let make_queue qname qattrs =
  {
    qname;
    qattrs;
    elems = Emap.empty;
    nonempty = Cond.create ();
    picky = 0;
    n_enq = 0;
    n_deq = 0;
    alerted = false;
    stopped = false;
  }

let default_error_queue q =
  match q.qattrs.error_queue with Some n -> n | None -> q.qname ^ ".err"

let ensure_queue s qn attrs =
  if not (Hashtbl.mem s.queues qn) then
    Hashtbl.replace s.queues qn (make_queue qn attrs)

let queue_depth q = Emap.cardinal q.elems

(* An element became ready on [q]: wake one waiter, or every waiter while
   one of them may pass it over, so no match sleeps through it (see
   [dequeue_from]). *)
let notify q =
  if q.picky > 0 then Cond.broadcast q.nonempty else Cond.signal q.nonempty

(* [live] is false in recovery and standby replay: no callbacks, no
   counters. *)
let check_alert s ~live q =
  if live then
    match q.qattrs.alert_threshold with
    | Some thr ->
      let d = queue_depth q in
      if d >= thr && not q.alerted then begin
        q.alerted <- true;
        s.alert_cb q.qname d
      end
      else if d < thr then q.alerted <- false
    | None -> ()

let remove_element s eid =
  match Eidtbl.find_opt s.index eid with
  | None -> None
  | Some (qn, el) ->
    let q = get_queue s qn in
    q.elems <- Emap.remove (Element.key el) q.elems;
    Eidtbl.remove s.index eid;
    (match q.qattrs.alert_threshold with
    | Some thr when queue_depth q < thr -> q.alerted <- false
    | _ -> ());
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.set_gauge
        (Printf.sprintf "qm.depth:%s/%s" s.qm_name q.qname)
        (float_of_int (queue_depth q));
    Some (q, el)

(* The queue an element put on [q] lands in: redirection is followed while
   its target exists. *)
let rec landing s q =
  match q.qattrs.redirect_to with
  | Some target when target <> q.qname -> (
    match Hashtbl.find_opt s.queues target with
    | Some t -> landing s t
    | None -> q)
  | _ -> q

(* Insert, following redirection, then fire any completed trigger group. *)
let rec insert_element s ~live qn el =
  let q = landing s (get_queue s qn) in
  q.elems <- Emap.add (Element.key el) el q.elems;
  Eidtbl.replace s.index el.Element.eid (q.qname, el);
  if live then q.n_enq <- q.n_enq + 1;
  if Rrq_obs.enabled () then
    Rrq_obs.Metrics.set_gauge
      (Printf.sprintf "qm.depth:%s/%s" s.qm_name q.qname)
      (float_of_int (queue_depth q));
  notify q;
  check_alert s ~live q;
  check_triggers s ~live q el

and check_triggers s ~live q el =
  match Hashtbl.find_opt s.triggers q.qname with
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
              (fun m -> ignore (remove_element s m.Element.eid))
              members;
            List.iter
              (fun (target, payload, props) ->
                let eid = fresh_eid s in
                let out =
                  Element.make ~eid ~payload ~props ~priority:0
                    ~enq_time:(now s)
                in
                insert_element s ~live target out)
              outputs
          end)
      trigs

and fresh_eid s =
  s.next_eid_low <- Int64.add s.next_eid_low 1L;
  Int64.add (Int64.mul (Int64.of_int s.incarnations) 0x100000000L) s.next_eid_low

and now s =
  s.internal_seq <- s.internal_seq +. 1.0;
  s.clock () +. (s.internal_seq *. 1e-9)

(* Trigger outputs allocate eids at apply time. During replay this re-runs
   with the same incarnation counter state as the original run *only if*
   the original run allocated them in the same order — which holds because
   apply order equals log order. Post-crash incarnation bumps keep fresh
   eids unique anyway. *)

(* A dequeue logged by reference takes the element it names, which its
   RDeq has not removed yet (see [encode_last_op]). *)
let resolve_copy s = function
  | { op_kind = `Dequeue; element_copy = None; op_eid; _ } as l ->
    { l with element_copy = Option.map snd (Eidtbl.find_opt s.index op_eid) }
  | l -> l

let apply s ~live op =
  (* Operation counters live here (not in the workspace path) so they count
     committed effects only, and [live] keeps recovery from double-counting
     a run's history. *)
  let obs = live && Rrq_obs.enabled () in
  match op.op_redo with
  | RCreate (qn, a) -> ensure_queue s qn a
  | REnq (qn, el) ->
    if obs then Rrq_obs.Metrics.inc ("qm.enqueues:" ^ s.qm_name);
    insert_element s ~live qn el
  | RDeq eid -> begin
    match remove_element s eid with
    | Some (q, el) ->
      if live then q.n_deq <- q.n_deq + 1;
      if obs then begin
        Rrq_obs.Metrics.inc ("qm.dequeues:" ^ s.qm_name);
        Rrq_obs.Metrics.observe
          (Printf.sprintf "qm.wait:%s/%s" s.qm_name q.qname)
          (s.clock () -. el.Element.enq_time)
      end
    | None -> ()
  end
  | RKill eid ->
    if obs then Rrq_obs.Metrics.inc ("qm.kills:" ^ s.qm_name);
    ignore (remove_element s eid)
  | RBump eid -> begin
    match Eidtbl.find_opt s.index eid with
    | Some (_, el) ->
      el.Element.delivery_count <- el.Element.delivery_count + 1;
      if obs then begin
        Rrq_obs.Metrics.inc ("qm.bumps:" ^ s.qm_name);
        Rrq_obs.Metrics.observe
          ("qm.abort_count:" ^ s.qm_name)
          (float_of_int el.Element.delivery_count)
      end
    | None -> ()
  end
  | RStale eid -> begin
    match Eidtbl.find_opt s.index eid with
    | Some (_, el) -> el.Element.stale_count <- el.Element.stale_count + 1
    | None -> ()
  end
  | RMove_error (eid, errq, code, copy) -> begin
    (* Replay finds no element from an unlogged queue: the record's copy
       stands in for it. *)
    match (remove_element s eid, copy) with
    | None, None -> ()
    | Some (_, el), _ | None, Some el ->
      el.Element.abort_code <- Some code;
      el.Element.status <- Element.Ready;
      if obs then begin
        Rrq_obs.Metrics.inc ("qm.spills:" ^ s.qm_name);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Error_spill
             { qm = s.qm_name; error_queue = errq; eid; code })
      end;
      ensure_queue s errq
        { default_attrs with retry_limit = max_int; error_queue = Some errq };
      insert_element s ~live errq el
  end
  | RRegister (r, qn, stable) ->
    if not (Hashtbl.mem s.regs (r, qn)) then
      Hashtbl.replace s.regs (r, qn)
        { r_registrant = r; r_queue = qn; r_stable = stable; r_last = None }
  | RDeregister (r, qn) -> Hashtbl.remove s.regs (r, qn)
  | RSet_last (r, qn, l) -> begin
    match Hashtbl.find_opt s.regs (r, qn) with
    | Some reg -> reg.r_last <- Option.map (resolve_copy s) l
    | None -> ()
  end
  | RIncarnation ->
    s.incarnations <- s.incarnations + 1;
    s.next_eid_low <- 0L
  | RDestroy qn -> begin
    match Hashtbl.find_opt s.queues qn with
    | None -> ()
    | Some q ->
      Emap.iter (fun _ el -> Eidtbl.remove s.index el.Element.eid) q.elems;
      Hashtbl.remove s.queues qn;
      let doomed =
        Hashtbl.fold
          (fun key reg acc -> if reg.r_queue = qn then key :: acc else acc)
          s.regs []
      in
      List.iter (Hashtbl.remove s.regs) doomed
  end
  | RSet_stopped (qn, flag) -> begin
    match Hashtbl.find_opt s.queues qn with
    | Some q ->
      q.stopped <- flag;
      if not flag then Cond.broadcast q.nonempty
    | None -> ()
  end
  | RAlter (qn, a) -> begin
    match Hashtbl.find_opt s.queues qn with
    | Some q ->
      q.qattrs <- a;
      check_alert s ~live q
    | None -> ()
  end

(* The queue an element update touches, resolved before apply (a dequeue's
   index entry is gone after it). *)
let element_queue s = function
  | REnq (qn, _) -> Hashtbl.find_opt s.queues qn
  | RDeq eid | RKill eid | RBump eid | RStale eid | RMove_error (eid, _, _, _) -> begin
    match Eidtbl.find_opt s.index eid with
    | Some (qn, _) -> Hashtbl.find_opt s.queues qn
    | None -> None
  end
  | RCreate _ | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation
  | RDestroy _ | RSet_stopped _ | RAlter _ ->
    None

(* A queue is a main-memory database that logs its updates (paper §10):
   a redo is logged iff the queue it touches is [Stable], and that record
   is the queue's only stable write; recovery rebuilds the queue from the
   checkpoint and the redo scan. DDL and registration records are always
   logged. [Volatile] queue updates are applied but never logged — they
   cost no forced writes and evaporate on crash. *)
let logged s op =
  match op.op_redo with
  | RMove_error (_, errq, _, Some _) -> (
    (* A spill that carries its element is logged by the error queue it
       lands in; a missing one is created [Stable]. *)
    match Hashtbl.find_opt s.queues errq with
    | Some q -> (landing s q).qattrs.durability = Stable
    | None -> true)
  | redo -> (
    match element_queue s redo with
    | Some q -> q.qattrs.durability = Stable
    | None -> true)

(* How many times the janitor may return an element before it goes to the
   error queue: a request whose owner keeps stalling (its reply shard never
   returns) still leaves the loop, long after any failed-delivery bound. *)
let stale_limit = 100

(* Returning a dequeued element to its queue after an abort. A failed
   delivery bumps its retry count durably, a janitor return (the owner
   stalled) its stale count; at the bound it moves to the error queue
   instead (§4.2). *)
let restore_element s ~stale op =
  match op.op_redo with
  | RDeq eid -> begin
    match Eidtbl.find_opt s.index eid with
    | None -> []
    | Some (qn, el) ->
      let q = get_queue s qn in
      el.Element.status <- Element.Ready;
      notify q;
      let count, limit, mark, what =
        if stale then (el.Element.stale_count, stale_limit, RStale eid, "stalled")
        else (el.Element.delivery_count, q.qattrs.retry_limit, RBump eid, "aborted")
      in
      if count + 1 >= limit then begin
        let errq =
          match op.op_errq with Some e -> e | None -> default_error_queue q
        in
        let code = Printf.sprintf "%s %d times" what (count + 1) in
        (* An element of an unlogged queue is not in the log, so the move
           carries it, with the count its mark is about to set. *)
        let copy =
          if q.qattrs.durability = Stable then None
          else if stale then Some { el with Element.stale_count = count + 1 }
          else Some { el with Element.delivery_count = count + 1 }
        in
        [ plain mark; plain (RMove_error (eid, errq, code, copy)) ]
      end
      else [ plain mark ]
  end
  | RCreate _ | REnq _ | RKill _ | RBump _ | RStale _ | RMove_error _
  | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation | RDestroy _
  | RSet_stopped _ | RAlter _ ->
    []

(* ---- snapshot / recovery ------------------------------------------- *)

let snapshot e s =
  Codec.int e s.incarnations;
  (* Every queue's definition, but only a stable queue's elements:
     volatile contents die with the process anyway. The checkpoint deletes
     the segments holding every queue's [RCreate] and its stable redo
     records, so the snapshot is the materialized prefix of exactly the log
     they recover from. *)
  let queues =
    Hashtbl.fold (fun _ q acc -> q :: acc) s.queues []
    |> List.sort (fun a b -> compare a.qname b.qname)
  in
  Codec.int e (List.length queues);
  List.iter
    (fun q ->
      Codec.string e q.qname;
      encode_attrs e q.qattrs;
      if q.qattrs.durability = Stable then begin
        Codec.int e (Emap.cardinal q.elems);
        Emap.iter (fun _ el -> Element.encode e el) q.elems
      end
      else Codec.int e 0)
    queues;
  let stopped_queues =
    Hashtbl.fold (fun qn q acc -> if q.stopped then qn :: acc else acc) s.queues []
  in
  Codec.list Codec.string e (List.sort compare stopped_queues);
  Codec.int e (Hashtbl.length s.regs);
  Hashtbl.iter
    (fun (r, qn) reg ->
      Codec.string e r;
      Codec.string e qn;
      Codec.bool e reg.r_stable;
      Codec.option encode_last_op e reg.r_last)
    s.regs;
  Codec.list
    (Codec.pair Codec.i64 Codec.int)
    e
    (Eidtbl.fold
       (fun eid (_, el) acc ->
         if el.Element.stale_count > 0 then (eid, el.Element.stale_count) :: acc else acc)
       s.index [])

(* In place: the clock, callbacks, triggers and lock table stay. *)
let restore s d =
  Hashtbl.reset s.queues;
  Eidtbl.reset s.index;
  Hashtbl.reset s.regs;
  Option.iter
    (fun d ->
      s.incarnations <- Codec.get_int d;
      let nq = Codec.get_int d in
      for _ = 1 to nq do
        let qn = Codec.get_string d in
        let a = decode_attrs d in
        let q = make_queue qn a in
        Hashtbl.replace s.queues qn q;
        let ne = Codec.get_int d in
        for _ = 1 to ne do
          let el = Element.decode d in
          q.elems <- Emap.add (Element.key el) el q.elems;
          Eidtbl.replace s.index el.Element.eid (qn, el)
        done
      done;
      let stopped_queues = Codec.get_list Codec.get_string d in
      List.iter
        (fun qn ->
          match Hashtbl.find_opt s.queues qn with
          | Some q -> q.stopped <- true
          | None -> ())
        stopped_queues;
      let nr = Codec.get_int d in
      for _ = 1 to nr do
        let r = Codec.get_string d in
        let qn = Codec.get_string d in
        let stable = Codec.get_bool d in
        let last = Codec.get_option decode_last_op d in
        Hashtbl.replace s.regs (r, qn)
          { r_registrant = r; r_queue = qn; r_stable = stable; r_last = last }
      done;
      List.iter
        (fun (eid, n) ->
          match Eidtbl.find_opt s.index eid with
          | Some (_, el) -> el.Element.stale_count <- n
          | None -> ())
        (Codec.get_list (Codec.get_pair Codec.get_i64 Codec.get_int) d))
    d

(* Re-assert the volatile exclusions of an in-doubt transaction: dequeued
   elements stay locked, strict-FIFO queue locks are re-taken. *)
let relock s id ops =
  List.iter
    (fun op ->
      match op.op_redo with
      | RDeq eid -> begin
        match Eidtbl.find_opt s.index eid with
        | Some (qn, el) ->
          el.Element.status <- Element.Deq_pending id;
          let q = get_queue s qn in
          if q.qattrs.strict_fifo then
            Lock.acquire s.locks id ~key:("q:" ^ qn) Lock.X
        | None -> ()
      end
      | RCreate _ | REnq _ | RKill _ | RBump _ | RStale _ | RMove_error _
      | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation | RDestroy _
      | RSet_stopped _ | RAlter _ ->
        ())
    ops

module Queue_state = struct
  type nonrec state = state
  type redo = op

  let kind = Node_log.Qm
  let encode_redo = encode_op
  let decode_redo = decode_op
  let apply = apply
  let logged = logged
  let abort_fixups s ~stale ops = List.concat_map (restore_element s ~stale) ops
  let snapshot = snapshot
  let restore = restore
  let relock = relock
  let locks s = s.locks
  let clock s = s.clock ()
end

module Base = Rrq_txn.Rm.Make (Queue_state)

type t = Base.t

let log_now t redo = Base.commit_now t [ plain redo ]

let attach ?(triggers = []) log ~name:qm_name =
  let s =
    {
      qm_name;
      queues = Hashtbl.create 16;
      index = Eidtbl.create 256;
      regs = Hashtbl.create 32;
      locks = Lock.create ~name:"qm" ();
      triggers = Hashtbl.create 4;
      incarnations = 0;
      next_eid_low = 0L;
      abort_cb = (fun _ -> ());
      alert_cb = (fun _ _ -> ());
      clock = (fun () -> 0.0);
      internal_seq = 0.0;
      auto_n = 0;
      auto_origin = qm_name ^ "!auto";
    }
  in
  List.iter
    (fun trig ->
      let cur =
        match Hashtbl.find_opt s.triggers trig.on_queue with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace s.triggers trig.on_queue (cur @ [ trig ]))
    triggers;
  let t = Base.attach log ~name:qm_name s in
  (* Bump the incarnation durably so eids and auto-txids never repeat. *)
  log_now t RIncarnation;
  t

let open_qm ?triggers disk ~name =
  attach ?triggers (Node_log.open_log disk ~name) ~name

let name = Base.name

(* ---- DDL ------------------------------------------------------------ *)

let create_queue t ?(attrs = default_attrs) qn =
  if not (Hashtbl.mem (Base.state t).queues qn) then log_now t (RCreate (qn, attrs))

let alter_queue t qn attrs =
  let q = get_queue (Base.state t) qn in
  if q.qattrs.durability <> attrs.durability then
    invalid_arg "Qm.alter_queue: durability class is immutable";
  log_now t (RAlter (qn, attrs))

let destroy_queue t qn =
  ignore (get_queue (Base.state t) qn);
  log_now t (RDestroy qn)

let stop_queue t qn =
  ignore (get_queue (Base.state t) qn);
  log_now t (RSet_stopped (qn, true))

let start_queue t qn =
  ignore (get_queue (Base.state t) qn);
  log_now t (RSet_stopped (qn, false))

let queue_stopped t qn = (get_queue (Base.state t) qn).stopped

let queue_exists t qn = Hashtbl.mem (Base.state t).queues qn

let queue_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) (Base.state t).queues [] |> List.sort compare

let depth t qn = queue_depth (get_queue (Base.state t) qn)

(* ---- registration ---------------------------------------------------- *)

let register t ~queue ~registrant ~stable =
  let s = Base.state t in
  if not (Hashtbl.mem s.queues queue) then raise (No_such_queue queue);
  let h = { h_registrant = registrant; h_queue = queue } in
  match Hashtbl.find_opt s.regs (registrant, queue) with
  | Some reg -> (h, if reg.r_stable then reg.r_last else None)
  | None ->
    log_now t (RRegister (registrant, queue, stable));
    (h, None)

let reg_of s h =
  match Hashtbl.find_opt s.regs (h.h_registrant, h.h_queue) with
  | Some reg -> reg
  | None ->
    raise (Not_registered (Printf.sprintf "%s@%s" h.h_registrant h.h_queue))

(* Read-only: no registration is created and nothing is logged, so a
   peer repository can be probed for duplicate-suppression evidence
   (shard registration pull) without perturbing its durable state. *)
let lookup_registration t ~queue ~registrant =
  match Hashtbl.find_opt (Base.state t).regs (registrant, queue) with
  | Some reg when reg.r_stable -> reg.r_last
  | _ -> None

let deregister t h =
  ignore (reg_of (Base.state t) h);
  log_now t (RDeregister (h.h_registrant, h.h_queue))

let handle_queue h = h.h_queue
let handle_registrant h = h.h_registrant

(* ---- data manipulation ----------------------------------------------- *)

let enqueue t id h ?tag ?(props = []) ?(priority = 0) payload =
  let s = Base.state t in
  let reg = reg_of s h in
  let q = get_queue s h.h_queue in
  if q.stopped then raise (Stopped h.h_queue);
  let eid = fresh_eid s in
  let el = Element.make ~eid ~payload ~props ~priority ~enq_time:(now s) in
  (* The redo names the queue the element lands in, so it is logged by that
     queue's durability and replay needs no redirecting queue. *)
  Base.add_redo t id (plain (REnq ((landing s q).qname, el)));
  (* No copy: an enqueue's last op is read for its tag and eid only. *)
  (match tag with
  | Some tag when reg.r_stable ->
    Base.add_redo t id
      (plain
         (RSet_last
            ( h.h_registrant,
              h.h_queue,
              Some { op_kind = `Enqueue; tag; op_eid = eid; element_copy = None } )))
  | _ -> ());
  if Rrq_obs.enabled () then
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Enqueue
         { qm = s.qm_name; queue = h.h_queue; eid; txid = Txid.to_string id });
  eid

(* Higher rank first (§11, "highest dollar amount first"), else queue order. *)
let beats ?rank el best =
  match rank with
  | Some rank when rank el <> rank best -> rank el > rank best
  | _ -> Key.compare (Element.key el) (Element.key best) < 0

(* The best ready match in [q]. Without [rank] the first match in queue
   order is the best, so the scan stops there. *)
let best_ready ?rank filter q =
  let best = ref None in
  (try
     Emap.iter
       (fun _ el ->
         if el.Element.status = Element.Ready && Filter.matches filter el then begin
           (match !best with
           | Some b when not (beats ?rank el b) -> ()
           | _ -> best := Some el);
           if Option.is_none rank then raise Exit
         end)
       q.elems
   with Exit -> ());
  !best

(* The best ready match across [qs], with its handle and registration. *)
let rec select_ready ?rank filter = function
  | [] -> None
  | (h, reg, q) :: rest -> (
    match (best_ready ?rank filter q, select_ready ?rank filter rest) with
    | Some el, Some (_, _, b) when beats ?rank el b -> Some (h, reg, el)
    | Some el, None -> Some (h, reg, el)
    | _, best -> best)

(* [reg] is the registration for [h] that the dequeue loop resolved up
   front: no second hash of the same key on every dequeue. *)
let take t id h ~reg ?tag ?errq el =
  el.Element.status <- Element.Deq_pending id;
  let deq = { op_redo = RDeq el.Element.eid; op_errq = errq } in
  (* The copy goes by reference when the element is in the log, so the
     RSet_last must come first: apply resolves it before the RDeq. *)
  (match tag with
  | Some tag when reg.r_stable ->
    let element_copy = if logged (Base.state t) deq then None else Some el in
    Base.add_redo t id
      (plain
         (RSet_last
            ( h.h_registrant,
              h.h_queue,
              Some { op_kind = `Dequeue; tag; op_eid = el.Element.eid; element_copy } )))
  | _ -> ());
  Base.add_redo t id deq;
  if Rrq_obs.enabled () then
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Dequeue
         {
           qm = Base.name t;
           queue = h.h_queue;
           eid = el.Element.eid;
           txid = Txid.to_string id;
         })

(* Each queue of a dequeue with a single dequeue's checks, in list order. *)
let rec resolve s = function
  | [] -> []
  | h :: hs ->
    let reg = reg_of s h in
    let q = get_queue s h.h_queue in
    if q.stopped then raise (Stopped h.h_queue);
    (h, reg, q) :: resolve s hs

(* The one dequeue loop; a single dequeue is a queue set of one (paper
   §9). The best ready match is taken, under its queue's strict-FIFO lock
   if it has one, or the caller waits on every queue under one deadline.
   A waiter that filters or waits on several queues counts in each
   queue's [picky] while parked, so [notify] wakes all its waiters
   (INTERNALS §5); one killed while parked costs wake-ups, loses none. *)
let dequeue_from t id hs ?tag ?(filter = Filter.True) ?rank ?error_queue wait =
  let s = Base.state t in
  let qs = resolve s hs in
  let lock q =
    try Lock.acquire s.locks id ~key:("q:" ^ q.qname) Lock.X with
    | Lock.Deadlock msg -> raise (Conflict ("deadlock: " ^ msg))
    | Lock.Cancelled -> raise (Conflict "cancelled")
  in
  (* A strict queue of one serializes its dequeuers before they select.
     In a larger set only the queue a dequeue takes from is locked: the
     best match is chosen and its queue's lock taken, and from then on
     the dequeue takes from that queue alone, whose head may have moved
     while the lock was waited for. So a set dequeue holds one strict
     lock at most, and two of them cannot wait on each other's. *)
  (match qs with [ (_, _, q) ] when q.qattrs.strict_fifo -> lock q | _ -> ());
  let unlocked q =
    q.qattrs.strict_fifo
    && not (Lock.holds s.locks id ~key:("q:" ^ q.qname) Lock.X)
  in
  let deadline =
    match wait with Timeout d -> Some (s.clock () +. d) | No_wait | Block -> None
  in
  let rec attempt qs =
    match select_ready ?rank filter qs with
    | Some (h, reg, _) when unlocked (get_queue s h.h_queue) ->
      let q = get_queue s h.h_queue in
      lock q;
      attempt [ (h, reg, q) ]
    | Some (h, reg, el) as taken ->
      take t id h ~reg ?tag ?errq:error_queue el;
      taken
    | None -> (
      let timeout = Option.map (fun dl -> dl -. s.clock ()) deadline in
      match (wait, timeout) with
      | No_wait, _ -> None
      | _, Some left when left <= 0.0 -> None
      | _ ->
        let picky = filter <> Filter.True || List.compare_length_with qs 1 > 0 in
        if picky then List.iter (fun (_, _, q) -> q.picky <- q.picky + 1) qs;
        let conds = List.map (fun (_, _, q) -> q.nonempty) qs in
        let woken = Cond.wait_any ?timeout conds in
        if picky then List.iter (fun (_, _, q) -> q.picky <- q.picky - 1) qs;
        if woken then attempt qs else None)
  in
  attempt qs

let dequeue t id h ?tag ?filter ?rank ?error_queue wait =
  Option.map (fun (_, _, el) -> el)
    (dequeue_from t id [ h ] ?tag ?filter ?rank ?error_queue wait)

let dequeue_set t id hs ?tag ?filter wait =
  Option.map (fun (h, _, el) -> (h, el)) (dequeue_from t id hs ?tag ?filter wait)

let read t eid =
  let s = Base.state t in
  match Eidtbl.find_opt s.index eid with
  | Some (qn, el) ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Read { qm = s.qm_name; queue = qn; found = true });
    Some el
  | None ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Read { qm = s.qm_name; queue = ""; found = false });
    None

let read_last t h =
  match (reg_of (Base.state t) h).r_last with
  | Some { element_copy; _ } -> element_copy
  | None -> None

(* Refresh per-queue depth and head-of-line age gauges; called periodically
   (the site janitor) and before metric dumps, since age only decays as the
   clock advances, not on queue activity. *)
let observe_queues t =
  let s = Base.state t in
  if Rrq_obs.enabled () then
    Hashtbl.iter
      (fun qn q ->
        Rrq_obs.Metrics.set_gauge
          (Printf.sprintf "qm.depth:%s/%s" s.qm_name qn)
          (float_of_int (queue_depth q));
        let age =
          match Emap.min_binding_opt q.elems with
          | Some (_, el) -> s.clock () -. el.Element.enq_time
          | None -> 0.0
        in
        Rrq_obs.Metrics.set_gauge (Printf.sprintf "qm.age:%s/%s" s.qm_name qn) age)
      s.queues

(* ---- commitment ------------------------------------------------------ *)

let participant = Base.participant
let commit = Base.commit
let remembered = Base.remembered
let incarnation t = (Base.state t).incarnations

let auto_run commit t f =
  let s = Base.state t in
  s.auto_n <- s.auto_n + 1;
  let id = Txid.make ~origin:s.auto_origin ~inc:s.incarnations ~n:s.auto_n in
  let t0 = if Rrq_obs.enabled () then s.clock () else 0.0 in
  match f id with
  | v ->
    (* Only count transactions that buffered work: polling an empty queue
       auto-commits too, and counting those would skew commit rates. *)
    let worked = Base.has_workspace t id in
    commit t id;
    if worked && Rrq_obs.enabled () then begin
      Rrq_obs.Metrics.inc ("qm.auto_commits:" ^ s.qm_name);
      Rrq_obs.Metrics.observe
        ("qm.commit.latency:" ^ s.qm_name)
        (s.clock () -. t0)
    end;
    v
  | exception e ->
    Base.abort t id;
    raise e

let auto_commit t f = auto_run commit t f
let auto_commit_lazy t f = auto_run Base.commit_lazy t f

(* A janitor abort returns what the workspace held without counting a
   failed delivery. The owner hears first: an owner on this node must not
   commit without the workspace while its abort record is being forced. *)
let abort_stale t ~older_than =
  let stale = Base.mark_stale t ~older_than in
  List.iter
    (fun id ->
      (Base.state t).abort_cb id;
      Base.abort t id)
    stale;
  List.length stale

let kill_element t eid =
  let s = Base.state t in
  match Eidtbl.find_opt s.index eid with
  | None -> false
  | Some (_, el) ->
    (match el.Element.status with
    | Element.Deq_pending id -> s.abort_cb id
    | Element.Ready -> ());
    (* The abort may have moved it to an error queue; chase the eid. *)
    if Eidtbl.mem s.index eid then begin
      log_now t (RKill eid);
      true
    end
    else false

let kill_where t filter =
  let victims =
    Eidtbl.fold
      (fun eid (_, el) acc -> if Filter.matches filter el then eid :: acc else acc)
      (Base.state t).index []
  in
  List.fold_left
    (fun n eid -> if kill_element t eid then n + 1 else n)
    0 victims

(* ---- callbacks / maintenance ---------------------------------------- *)

let in_doubt = Base.in_doubt
let relock_in_doubt = Base.relock_in_doubt
let set_abort_callback t f = (Base.state t).abort_cb <- f
let set_alert_callback t f = (Base.state t).alert_cb <- f
let set_clock t f = (Base.state t).clock <- f

let log = Base.log
let checkpoint t = Node_log.checkpoint (log t)

(* Durably open a fresh incarnation without reopening the repository — the
   promotion path: a new primary must never mint eids or auto-txids that
   collide with ones the old primary handed out. *)
let bump_incarnation t = log_now t RIncarnation

let live_log_bytes t = Node_log.live_log_bytes (log t)

let counts t qn =
  let q = get_queue (Base.state t) qn in
  (q.n_enq, q.n_deq)

let elements t qn =
  let q = get_queue (Base.state t) qn in
  Emap.fold (fun _ el acc -> el :: acc) q.elems [] |> List.rev
