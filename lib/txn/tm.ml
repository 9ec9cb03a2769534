module Codec = Rrq_util.Codec
module Swallow = Rrq_util.Swallow
module Sched = Rrq_sim.Sched

type outcome = Committed | Aborted

type rm_status = [ `Prepared | `Committed | `Unknown ]

type local = {
  l_log : Node_log.t;
  l_stage : Txid.t -> Node_log.part;
  l_prepare : Txid.t -> coordinator:string -> Node_log.part;
  l_decide : Txid.t -> Node_log.part;
}

type participant = {
  part_name : string;
  p_local : local option;
  p_prepare : Txid.t -> coordinator:string -> unit -> bool;
  p_commit : Txid.t -> bool;
  p_abort : Txid.t -> unit;
  p_has_work : Txid.t -> bool;
  p_status : Txid.t -> rm_status option;
  p_forget : Txid.t list -> unit;
}

type status = Active | Finished of outcome

type txn = {
  id : Txid.t;
  mutable participants : participant list; (* reverse join order *)
  mutable status : status;
  mutable commit_hooks : (unit -> unit) list;
  mutable abort_hooks : (unit -> unit) list;
}

type t = {
  tm_name : string;
  log : Node_log.t;
  mutable inc : int;
  mutable next_n : int;
  (* Commit decisions logged but not yet retired: txid -> the remote
     participants that have not acknowledged the commit yet. *)
  pending : (Txid.t, string list ref) Hashtbl.t;
  (* Staged records without a decision: txid -> its remote participants.
     Recovery resolves them by asking those participants. *)
  staged : (Txid.t, string list) Hashtbl.t;
  (* Live transactions from their staged record until their outcome is
     durable: queries about these must answer [`Pending]. *)
  deciding : (Txid.t, unit) Hashtbl.t;
  (* Decision records appended lazily and not yet known durable, with the
     participants that may forget the commit once they are. *)
  mutable settling : (Txid.t * participant list) list;
  mutable settle_lsn : int; (* the last of their records *)
  mutable settler : bool; (* a settle fiber is running *)
  (* Live transaction handles, for force_abort. *)
  live : (Txid.t, txn) Hashtbl.t;
  mutable resolver : string -> participant option;
  (* The RMs on this TM's log: recovery commits or aborts their in-doubt
     sections of a staged record. *)
  mutable locals : participant list;
  mutable n_committed : int;
  mutable n_aborted : int;
}

(* Section kinds. A decision or abort section resolves a staged one. *)
let k_incarnation = 1
let k_decision = 2
let k_end = 3
let k_staged = 4
let k_abort = 5

(* Section writers, run when the node log appends the record. *)
let encode_incarnation e = Codec.u8 e k_incarnation

let encode_staged id pnames e =
  Codec.u8 e k_staged;
  Txid.encode e id;
  Codec.list Codec.string e pnames

let encode_id kind id e =
  Codec.u8 e kind;
  Txid.encode e id

let encode_ends ids e =
  Codec.u8 e k_end;
  Codec.list Txid.encode e ids

(* A decision section names only its txid: the staged section before it
   in the log (or in the checkpoint) names the participants. *)
let replay t section =
  let d = Codec.decoder section in
  let kind = Codec.get_u8 d in
  if kind = k_incarnation then t.inc <- t.inc + 1
  else if kind = k_end then
    List.iter (Hashtbl.remove t.pending) (Codec.get_list Txid.decode d)
  else begin
    let id = Txid.decode d in
    if kind = k_staged then
      Hashtbl.replace t.staged id (Codec.get_list Codec.get_string d)
    else if kind = k_decision then begin
      let pnames = Option.value ~default:[] (Hashtbl.find_opt t.staged id) in
      Hashtbl.remove t.staged id;
      Hashtbl.replace t.pending id (ref pnames)
    end
    else if kind = k_abort then Hashtbl.remove t.staged id
    else failwith "tm: unknown log record"
  end

(* The checkpoint section: the incarnation, the unretired decisions and
   the undecided staged records. *)
let encode_snapshot t e =
  let entries tbl get = Hashtbl.fold (fun id v acc -> (id, get v) :: acc) tbl [] in
  let txns = Codec.list (Codec.pair Txid.encode (Codec.list Codec.string)) in
  Codec.int e t.inc;
  txns e (entries t.pending ( ! ));
  txns e (entries t.staged Fun.id)

(* State from a checkpoint section: recovery's, or a primary's on a
   standby, which takes the primary's unretired decisions and staged
   records for promotion to redeliver and resolve. The incarnation only
   grows: txids carry this TM's own name, so a smaller shipped number
   would let it mint ids it already used. *)
let install t snap =
  Hashtbl.reset t.pending;
  Hashtbl.reset t.staged;
  Option.iter
    (fun snap ->
      let d = Codec.decoder snap in
      let txns () =
        Codec.get_list (Codec.get_pair Txid.decode (Codec.get_list Codec.get_string)) d
      in
      t.inc <- max t.inc (Codec.get_int d);
      List.iter (fun (id, parts) -> Hashtbl.replace t.pending id (ref parts)) (txns ());
      List.iter (fun (id, parts) -> Hashtbl.replace t.staged id parts) (txns ()))
    snap

let tm_part ?(apply = ignore) redo =
  { Node_log.kind = Node_log.Tm; redo = Some redo; apply; durable = ignore }

let attach log ~name:tm_name =
  let t =
    {
      tm_name;
      log;
      inc = 0;
      next_n = 0;
      pending = Hashtbl.create 8;
      staged = Hashtbl.create 8;
      deciding = Hashtbl.create 8;
      settling = [];
      settle_lsn = 0;
      settler = false;
      live = Hashtbl.create 16;
      resolver = (fun _ -> None);
      locals = [];
      n_committed = 0;
      n_aborted = 0;
    }
  in
  let snap, records =
    Node_log.attach log Node_log.Tm
      {
        Node_log.snapshot = encode_snapshot t;
        replay = replay t;
        install = install t;
      }
  in
  install t snap;
  List.iter (replay t) records;
  (* A new incarnation, durable before the first txid is minted. *)
  Node_log.commit log
    [ tm_part ~apply:(fun () -> t.inc <- t.inc + 1) encode_incarnation ];
  t

let open_tm disk ~name = attach (Node_log.open_log disk ~name) ~name

let name t = t.tm_name

let begin_txn t =
  t.next_n <- t.next_n + 1;
  let txn =
    {
      id = Txid.make ~origin:t.tm_name ~inc:t.inc ~n:t.next_n;
      participants = [];
      status = Active;
      commit_hooks = [];
      abort_hooks = [];
    }
  in
  Hashtbl.replace t.live txn.id txn;
  if Rrq_obs.enabled () then begin
    Rrq_obs.Metrics.inc ("tm.begins:" ^ t.tm_name);
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Txn_begin
         { tm = t.tm_name; txid = Txid.to_string txn.id })
  end;
  txn

let txn_id txn = txn.id

let join txn p =
  match txn.status with
  | Finished Aborted ->
    (* Force-aborted under the owner's feet: undo whatever the owner did at
       this RM after the abort, so nothing leaks. *)
    Swallow.unit (fun () -> p.p_abort txn.id)
  | Finished Committed -> invalid_arg "Tm.join: transaction already committed"
  | Active ->
    if not (List.exists (fun q -> q.part_name = p.part_name) txn.participants)
    then txn.participants <- p :: txn.participants

let on_commit txn f = txn.commit_hooks <- f :: txn.commit_hooks
let on_abort txn f = txn.abort_hooks <- f :: txn.abort_hooks
let is_active txn = txn.status = Active

let finish txn outcome =
  txn.status <- Finished outcome;
  let hooks =
    match outcome with Committed -> txn.commit_hooks | Aborted -> txn.abort_hooks
  in
  txn.commit_hooks <- [];
  txn.abort_hooks <- [];
  List.iter (fun f -> f ()) (List.rev hooks)

let observe t =
  if Rrq_obs.enabled () then begin
    Rrq_obs.Metrics.set_gauge ("tm.pending:" ^ t.tm_name)
      (float_of_int (Hashtbl.length t.pending));
    Rrq_obs.Metrics.set_gauge ("tm.staged:" ^ t.tm_name)
      (float_of_int (Hashtbl.length t.staged))
  end

(* The apply of a staged record's TM section and of the sections that
   resolve it. *)
let stage_apply t id pnames () =
  Hashtbl.replace t.staged id pnames;
  observe t

let abort_apply t id () =
  Hashtbl.remove t.staged id;
  observe t

let decide_apply t id pnames () =
  Hashtbl.remove t.staged id;
  Hashtbl.replace t.pending id (ref pnames);
  observe t

(* End records retire decisions. Invariant: an End record never precedes
   a participant's acknowledgement, and a participant acknowledges only
   once its commit record is durable, so a recovered log names every
   decision some participant may still need redelivered. End records
   themselves are a cleanup optimization and need not be forced; one
   follows its decision records in the log, so it is never durable without
   them. *)
let log_ends t ids = Node_log.append t.log [ tm_part (encode_ends ids) ]

(* Deliver the decision to one participant; [false] means retry later. The
   last participant to acknowledge retires the decision; the End record of
   a decision still settling rides its settle round's. A participant
   remembers the commit until told that the decision record is durable:
   at once if it already is, else by the settle fiber. *)
let deliver t id p =
  let acked = Swallow.run ~default:false (fun () -> p.p_commit id) in
  if acked then begin
    let settled = not (Hashtbl.mem t.deciding id) in
    if settled then Swallow.unit (fun () -> p.p_forget [ id ]);
    match Hashtbl.find_opt t.pending id with
    | None -> ()
    | Some waiting ->
      waiting := List.filter (fun n -> n <> p.part_name) !waiting;
      if !waiting = [] then begin
        Hashtbl.remove t.pending id;
        observe t;
        if settled then log_ends t [ id ]
      end
  end;
  acked

(* Retry delivery, once a second, to the named participants that have not
   taken the decision yet. *)
let rec redeliver t id resolve pnames =
  let undelivered =
    List.filter
      (fun pname ->
        match resolve pname with None -> true | Some p -> not (deliver t id p))
      pnames
  in
  if undelivered <> [] then begin
    Sched.sleep_background 1.0;
    redeliver t id resolve undelivered
  end

let fork_redeliver t id resolve pnames =
  ignore
    (Sched.fork ~name:("redeliver:" ^ Txid.to_string id) (fun () ->
         redeliver t id resolve pnames))

let deliver_commits t id parts =
  let undelivered = List.filter (fun p -> not (deliver t id p)) parts in
  Rrq_sim.Crashpoint.reach ("tm.delivered:" ^ t.tm_name);
  if undelivered <> [] then begin
    (* Keep retrying in the background; closures remain valid while this
       incarnation lives, and recovery re-resolves by name otherwise. *)
    let by_name pname =
      match List.find_opt (fun p -> p.part_name = pname) parts with
      | Some p -> Some p
      | None -> t.resolver pname
    in
    fork_redeliver t id by_name (List.map (fun p -> p.part_name) undelivered)
  end

(* How often the settle fiber releases the participants of lazily
   appended decision records. *)
let settle_every = 0.5

(* One fiber per TM settles the decision records appended since its last
   round: it forces the log unless other commits' forces have already
   covered them (under load they have), then the decisions stop answering
   [`Pending], each participant that took a commit gets one forget for the
   batch, and one End record retires the batch's acknowledged decisions. *)
let rec settle t =
  Sched.sleep_background settle_every;
  let batch = t.settling in
  t.settling <- [];
  Node_log.force_upto t.log t.settle_lsn;
  let forgets = Hashtbl.create 4 in
  List.iter
    (fun (id, parts) ->
      Hashtbl.remove t.deciding id;
      let waiting =
        match Hashtbl.find_opt t.pending id with Some w -> !w | None -> []
      in
      List.iter
        (fun p ->
          if not (List.mem p.part_name waiting) then
            let ids =
              match Hashtbl.find_opt forgets p.part_name with
              | Some (_, ids) -> ids
              | None -> []
            in
            Hashtbl.replace forgets p.part_name (p, id :: ids))
        parts)
    batch;
  (match List.filter (fun (id, _) -> not (Hashtbl.mem t.pending id)) batch with
  | [] -> ()
  | ended -> log_ends t (List.map fst ended));
  Hashtbl.iter (fun _ (p, ids) -> Swallow.unit (fun () -> p.p_forget ids)) forgets;
  if t.settling = [] then t.settler <- false else settle t

let settle_later t id parts =
  t.settling <- (id, parts) :: t.settling;
  t.settle_lsn <- Node_log.tail t.log;
  if not t.settler then begin
    t.settler <- true;
    ignore (Sched.fork ~name:("settle:" ^ t.tm_name) (fun () -> settle t))
  end

(* Send the prepare; the result waits for the vote. *)
let start_vote t id p =
  let await =
    Swallow.run ~default:(fun () -> false) (fun () ->
        p.p_prepare id ~coordinator:t.tm_name)
  in
  fun () ->
    let yes = Swallow.run ~default:false await in
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Txn_vote
           { tm = t.tm_name; txid = Txid.to_string id; rm = p.part_name; yes });
    yes

(* Abort a staged transaction durably: its staged record is durable, and a
   participant whose yes vote never arrived may be prepared, so without
   the abort record recovery could find every participant prepared and
   commit. [locals] abort their in-doubt sections with records of their
   own; the force covers the TM's section when they logged nothing. *)
let abort_staged t id ~locals ~remote =
  Node_log.append t.log [ tm_part ~apply:(abort_apply t id) (encode_id k_abort id) ];
  List.iter (fun p -> Swallow.unit (fun () -> p.p_abort id)) locals;
  Node_log.force t.log;
  List.iter (fun p -> Swallow.unit (fun () -> p.p_abort id)) remote

let notify_abort txn =
  List.iter (fun p -> Swallow.unit (fun () -> p.p_abort txn.id)) (List.rev txn.participants)

let commit t txn =
  match txn.status with
  | Finished Aborted ->
    (* Force-aborted earlier: re-notify so locks or buffers acquired since
       the abort are cleaned up (participant aborts are idempotent). *)
    notify_abort txn;
    Aborted
  | Finished Committed -> Committed
  | Active -> begin
    (* Commit latency runs from here to the durable outcome; under a
       batched force the fiber may park inside [Group_commit.force], and
       that wait is exactly what the histogram should show. *)
    let t0 =
      if Rrq_obs.enabled () && Sched.in_fiber () then Sched.clock () else 0.0
    in
    let commit_done () =
      t.n_committed <- t.n_committed + 1;
      if Rrq_obs.enabled () then begin
        Rrq_obs.Metrics.inc ("tm.commits:" ^ t.tm_name);
        if Sched.in_fiber () then
          Rrq_obs.Metrics.observe
            ("tm.commit.latency:" ^ t.tm_name)
            (Sched.clock () -. t0);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Txn_commit
             { tm = t.tm_name; txid = Txid.to_string txn.id })
      end
    in
    let abort_done () =
      t.n_aborted <- t.n_aborted + 1;
      if Rrq_obs.enabled () then begin
        Rrq_obs.Metrics.inc ("tm.aborts:" ^ t.tm_name);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Txn_abort
             { tm = t.tm_name; txid = Txid.to_string txn.id })
      end
    in
    Hashtbl.remove t.live txn.id;
    (* Participants that buffered no update are excused with an abort
       notice, which merely releases their read locks. *)
    let parts, workless =
      List.partition
        (fun p -> Swallow.run ~default:true (fun () -> p.p_has_work txn.id))
        (List.rev txn.participants)
    in
    List.iter (fun p -> Swallow.unit (fun () -> p.p_abort txn.id)) workless;
    (* Participants on this TM's node log join its records; the rest
       (other nodes, other logs) vote. *)
    let local, remote =
      List.partition_map
        (fun p ->
          match p.p_local with
          | Some l when l.l_log == t.log -> Either.Left (p, l)
          | Some _ | None -> Either.Right p)
        parts
    in
    if remote = [] then begin
      Node_log.commit t.log (List.map (fun (_, l) -> l.l_stage txn.id) local);
      Rrq_sim.Crashpoint.reach ("tm.decided:" ^ t.tm_name);
      commit_done ();
      finish txn Committed;
      Committed
    end
    else begin
      (* Parallel commit. The staged record (the local workspaces as
         in-doubt sections, and the remote participants' names) is
         appended before any prepare is sent, and forced while the
         prepares are in flight. The transaction is committed once it is
         durable and every remote participant voted yes: recovery, finding
         it without a decision, asks them. *)
      let id = txn.id in
      let pnames = List.map (fun p -> p.part_name) remote in
      Hashtbl.replace t.deciding id ();
      Node_log.append t.log
        (List.map (fun (_, l) -> l.l_prepare id ~coordinator:t.tm_name) local
        @ [ tm_part ~apply:(stage_apply t id pnames) (encode_staged id pnames) ]);
      let t_prep = if Sched.in_fiber () then Sched.clock () else 0.0 in
      let votes = List.map (start_vote t id) remote in
      Node_log.force t.log;
      if Rrq_obs.enabled () then
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Txn_staged { tm = t.tm_name; txid = Txid.to_string id });
      Rrq_sim.Crashpoint.reach ("tm.staged:" ^ t.tm_name);
      (* Every vote is awaited, so no reply is left pending. *)
      let all_yes = List.for_all Fun.id (List.map (fun await -> await ()) votes) in
      if Rrq_obs.enabled () && Sched.in_fiber () then
        Rrq_obs.Metrics.observe ("tm.prepare.latency:" ^ t.tm_name)
          (Sched.clock () -. t_prep);
      if not all_yes then begin
        abort_staged t id ~locals:(List.map fst local) ~remote;
        Hashtbl.remove t.deciding id;
        abort_done ();
        finish txn Aborted;
        Aborted
      end
      else begin
        Rrq_sim.Crashpoint.reach ("tm.prepared:" ^ t.tm_name);
        (* The decision record: the local commit sections and the
           decision, applied now and durable with the next force. *)
        Node_log.append t.log
          (List.map (fun (_, l) -> l.l_decide id) local
          @ [ tm_part ~apply:(decide_apply t id pnames) (encode_id k_decision id) ]);
        Rrq_sim.Crashpoint.reach ("tm.decided:" ^ t.tm_name);
        commit_done ();
        finish txn Committed;
        settle_later t id remote;
        deliver_commits t id remote;
        Committed
      end
    end
  end

let abort t txn =
  match txn.status with
  | Finished Committed -> ()
  | Finished Aborted ->
    (* Force-aborted earlier, as in [commit]: the owner may have taken
       locks since (a lock wait granted just before the abort), which
       nothing else would ever release. *)
    notify_abort txn
  | Active ->
    Hashtbl.remove t.live txn.id;
    (* Before the notices, which may yield: an owner that reaches [commit]
       meanwhile must find the transaction aborted, not commit what the
       aborted participants no longer hold. *)
    txn.status <- Finished Aborted;
    notify_abort txn;
    t.n_aborted <- t.n_aborted + 1;
    if Rrq_obs.enabled () then begin
      Rrq_obs.Metrics.inc ("tm.aborts:" ^ t.tm_name);
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Txn_abort
           { tm = t.tm_name; txid = Txid.to_string txn.id })
    end;
    finish txn Aborted

let force_abort t id =
  match Hashtbl.find_opt t.live id with
  | None -> false
  | Some txn ->
    abort t txn;
    true

let decision t id =
  if Hashtbl.mem t.deciding id || Hashtbl.mem t.staged id then `Pending
  else if Hashtbl.mem t.pending id then `Committed
  else `Aborted (* presumed abort: no logged decision, not deciding *)

let set_resolver t ?(locals = []) f =
  t.resolver <- f;
  t.locals <- locals

(* A staged record recovered without its decision. The transaction
   committed iff every remote participant voted yes, which only they know
   now: ask each until all have answered, or one answers unknown (it
   discarded the work, so its vote can no longer be yes). *)
let rec resolve_staged t id pnames =
  let ask pname =
    match t.resolver pname with
    | None -> None
    | Some p -> Swallow.run ~default:None (fun () -> p.p_status id)
  in
  let answers = List.map ask pnames in
  let outcome =
    if List.mem (Some `Unknown) answers then Some false
    else if List.for_all Option.is_some answers then Some true
    else None
  in
  match outcome with
  | _ when not (Hashtbl.mem t.staged id) -> () (* resolved meanwhile *)
  | None ->
    Sched.sleep_background 1.0;
    resolve_staged t id pnames
  | Some commit ->
    (* A participant that answered unknown holds nothing to abort. *)
    let remote =
      List.filter_map
        (fun (pname, answer) -> if answer = Some `Unknown then None else t.resolver pname)
        (List.combine pnames answers)
    in
    if commit then
      Node_log.commit t.log
        (List.filter_map (fun p -> Option.map (fun l -> l.l_decide id) p.p_local) t.locals
        @ [ tm_part ~apply:(decide_apply t id pnames) (encode_id k_decision id) ])
    else abort_staged t id ~locals:t.locals ~remote;
    if Rrq_obs.enabled () then begin
      Rrq_obs.Metrics.inc
        ((if commit then "tm.staged_resolved.commit:" else "tm.staged_resolved.abort:")
        ^ t.tm_name);
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Txn_resolve { tm = t.tm_name; txid = Txid.to_string id; commit })
    end;
    if commit then redeliver t id t.resolver pnames

let recover_pending t =
  observe t;
  Hashtbl.iter
    (fun id waiting -> fork_redeliver t id t.resolver !waiting)
    t.pending;
  List.iter
    (fun (id, pnames) ->
      ignore
        (Sched.fork ~name:("resolve:" ^ Txid.to_string id) (fun () ->
             resolve_staged t id pnames)))
    (Hashtbl.fold (fun id pnames acc -> (id, pnames) :: acc) t.staged [])

let pending_decisions t = Hashtbl.fold (fun id _ acc -> id :: acc) t.pending []
let stats t = (t.n_committed, t.n_aborted)
