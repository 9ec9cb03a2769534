module Codec = Rrq_util.Codec
module Swallow = Rrq_util.Swallow
module Sched = Rrq_sim.Sched

type outcome = Committed | Aborted

type participant = {
  part_name : string;
  p_local : (Node_log.t * (Txid.t -> Node_log.part)) option;
  p_prepare : Txid.t -> coordinator:string -> bool;
  p_commit : Txid.t -> bool;
  p_abort : Txid.t -> unit;
  p_has_work : Txid.t -> bool;
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
  (* Transactions currently inside the voting phase (decision not yet
     logged): queries about these must answer [`Pending]. *)
  deciding : (Txid.t, unit) Hashtbl.t;
  (* Live transaction handles, for force_abort. *)
  live : (Txid.t, txn) Hashtbl.t;
  mutable resolver : string -> participant option;
  mutable n_committed : int;
  mutable n_aborted : int;
}

(* Section kinds. *)
let k_incarnation = 1
let k_decision = 2
let k_end = 3

let encode_incarnation () =
  let e = Codec.encoder () in
  Codec.u8 e k_incarnation;
  e

let encode_decision id parts =
  let e = Codec.encoder () in
  Codec.u8 e k_decision;
  Txid.encode e id;
  Codec.list Codec.string e parts;
  e

let encode_end id =
  let e = Codec.encoder () in
  Codec.u8 e k_end;
  Txid.encode e id;
  e

let replay t section =
  let d = Codec.decoder section in
  let kind = Codec.get_u8 d in
  if kind = k_incarnation then t.inc <- t.inc + 1
  else if kind = k_decision then begin
    let id = Txid.decode d in
    let parts = Codec.get_list Codec.get_string d in
    Hashtbl.replace t.pending id (ref parts)
  end
  else if kind = k_end then Hashtbl.remove t.pending (Txid.decode d)
  else failwith "tm: unknown log record"

(* The checkpoint section: the incarnation and the unretired decisions. *)
let encode_snapshot t =
  let e = Codec.encoder () in
  Codec.int e t.inc;
  Codec.list
    (Codec.pair Txid.encode (Codec.list Codec.string))
    e
    (Hashtbl.fold (fun id w acc -> (id, !w) :: acc) t.pending []);
  Codec.to_string e

let decode_snapshot snap =
  let d = Codec.decoder snap in
  let inc = Codec.get_int d in
  let pending =
    Codec.get_list (Codec.get_pair Txid.decode (Codec.get_list Codec.get_string)) d
  in
  (inc, pending)

(* State from a checkpoint section: recovery's, or a primary's on a
   standby, which takes the primary's unretired decisions for promotion to
   redeliver. The incarnation only grows: txids carry this TM's own name,
   so a smaller shipped number would let it mint ids it already used. *)
let install t snap =
  Hashtbl.reset t.pending;
  Option.iter
    (fun snap ->
      let inc, pending = decode_snapshot snap in
      t.inc <- max t.inc inc;
      List.iter (fun (id, parts) -> Hashtbl.replace t.pending id (ref parts)) pending)
    snap

let tm_part ?(apply = ignore) ?(durable = ignore) redo =
  { Node_log.kind = Node_log.Tm; redo = Some redo; apply; durable }

let attach log ~name:tm_name =
  let t =
    {
      tm_name;
      log;
      inc = 0;
      next_n = 0;
      pending = Hashtbl.create 8;
      deciding = Hashtbl.create 8;
      live = Hashtbl.create 16;
      resolver = (fun _ -> None);
      n_committed = 0;
      n_aborted = 0;
    }
  in
  let snap, records =
    Node_log.attach log Node_log.Tm
      {
        Node_log.snapshot = (fun () -> encode_snapshot t);
        replay = replay t;
        install = install t;
      }
  in
  install t snap;
  List.iter (replay t) records;
  (* A new incarnation, durable before the first txid is minted. *)
  Node_log.commit log
    [ tm_part ~apply:(fun () -> t.inc <- t.inc + 1) (encode_incarnation ()) ];
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

let observe_pending t =
  if Rrq_obs.enabled () then
    Rrq_obs.Metrics.set_gauge ("tm.pending:" ^ t.tm_name)
      (float_of_int (Hashtbl.length t.pending))

(* Retire a decision. Invariant: an End record never precedes a
   participant's acknowledgement, and a participant acknowledges only once
   its commit record is durable, so a recovered log names every decision
   some participant may still need redelivered. End records themselves are
   a cleanup optimization and need not be forced. *)
let log_end t id =
  Hashtbl.remove t.pending id;
  observe_pending t;
  Node_log.append_lazy t.log Node_log.Tm (encode_end id)

(* Deliver the decision to one participant; [false] means retry later. The
   last participant to acknowledge retires the decision. *)
let deliver t id p =
  let acked = Swallow.run ~default:false (fun () -> p.p_commit id) in
  (if acked then
     match Hashtbl.find_opt t.pending id with
     | None -> ()
     | Some waiting ->
       waiting := List.filter (fun n -> n <> p.part_name) !waiting;
       if !waiting = [] then log_end t id);
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

let commit t txn =
  match txn.status with
  | Finished Aborted ->
    (* Force-aborted earlier: re-notify so locks or buffers acquired since
       the abort are cleaned up (participant aborts are idempotent). *)
    List.iter
      (fun p -> Swallow.unit (fun () -> p.p_abort txn.id))
      (List.rev txn.participants);
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
    (* Participants on this TM's node log join one commit record; the rest
       (other nodes, other logs) are two-phase commit participants. *)
    let local, remote =
      List.partition_map
        (fun p ->
          match p.p_local with
          | Some (log, stage) when log == t.log -> Either.Left stage
          | Some _ | None -> Either.Right p)
        parts
    in
    let stage_local () = List.map (fun stage -> stage txn.id) local in
    if remote = [] then begin
      Node_log.commit t.log (stage_local ());
      Rrq_sim.Crashpoint.reach ("tm.decided:" ^ t.tm_name);
      commit_done ();
      finish txn Committed;
      Committed
    end
    else begin
      Hashtbl.replace t.deciding txn.id ();
      (* The local parts are taken before the votes, which can take a
         while: an RM's janitor must not abort a workspace the record will
         carry. A no vote aborts them like the rest. *)
      let local_parts = stage_local () in
      let all_yes =
        List.for_all
          (fun p ->
            Swallow.run ~default:false (fun () ->
                p.p_prepare txn.id ~coordinator:t.tm_name))
          remote
      in
      if not all_yes then begin
        Hashtbl.remove t.deciding txn.id;
        List.iter (fun p -> Swallow.unit (fun () -> p.p_abort txn.id)) parts;
        abort_done ();
        finish txn Aborted;
        Aborted
      end
      else begin
        let pnames = List.map (fun p -> p.part_name) remote in
        Rrq_sim.Crashpoint.reach ("tm.prepared:" ^ t.tm_name);
        (* The local updates and the decision are one record. The decision
           is applied with the record, so a checkpoint cut while this fiber
           is parked in the force keeps it, but the txn stays in [deciding]
           (answering [`Pending]) until the record is durable: resolvers
           must not observe a commit outcome that a crash could still
           revoke. *)
        Node_log.commit t.log
          (local_parts
          @ [
              tm_part
                ~apply:(fun () ->
                  Hashtbl.replace t.pending txn.id (ref pnames);
                  observe_pending t)
                ~durable:(fun () -> Hashtbl.remove t.deciding txn.id)
                (encode_decision txn.id pnames);
            ]);
        Rrq_sim.Crashpoint.reach ("tm.decided:" ^ t.tm_name);
        commit_done ();
        finish txn Committed;
        deliver_commits t txn.id remote;
        Committed
      end
    end
  end

let abort t txn =
  match txn.status with
  | Finished _ -> ()
  | Active ->
    Hashtbl.remove t.live txn.id;
    List.iter (fun p -> Swallow.unit (fun () -> p.p_abort txn.id)) (List.rev txn.participants);
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
  if Hashtbl.mem t.deciding id then `Pending
  else if Hashtbl.mem t.pending id then `Committed
  else `Aborted (* presumed abort: no logged decision, not deciding *)

let set_resolver t f = t.resolver <- f

let recover_pending t =
  observe_pending t;
  Hashtbl.iter
    (fun id waiting -> fork_redeliver t id t.resolver !waiting)
    t.pending

let pending_decisions t = Hashtbl.fold (fun id _ acc -> id :: acc) t.pending []
let stats t = (t.n_committed, t.n_aborted)
