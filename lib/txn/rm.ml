module Codec = Rrq_util.Codec

module type STATE = sig
  type state
  type redo

  val kind : Node_log.kind
  val encode_redo : Codec.encoder -> redo -> unit
  val decode_redo : Codec.decoder -> redo
  val apply : state -> live:bool -> redo -> unit
  val logged : state -> redo -> bool
  val abort_fixups : state -> stale:bool -> redo list -> redo list
  val snapshot : Codec.encoder -> state -> unit
  val restore : state -> Codec.decoder option -> unit
  val relock : state -> Txid.t -> redo list -> unit
  val locks : state -> Lock.t
  val clock : state -> float
end

module Make (S : STATE) = struct
  type prepared = { coordinator : string; redos : S.redo list }

  type workspace = {
    mutable ops : S.redo list; (* newest first *)
    mutable activity : float;
    mutable stale : bool;
  }

  type t = {
    rm_name : string;
    log : Node_log.t;
    st : S.state;
    workspaces : workspace Txid.Tbl.t;
    prepared_txns : prepared Txid.Tbl.t;
    (* Transactions committed for a remote coordinator whose decision
       record may not be durable yet: recovery there asks this RM. *)
    remembered : unit Txid.Tbl.t;
  }

  (* Section kinds. A one-phase or prepare section carries its txid (none
     for updates outside a transaction), its coordinator ("" for one
     phase) and its redos. The resolutions of an in-doubt transaction carry
     only its txid: [k_commit] inside its coordinator's decision record,
     [k_commit_kept] for a remote coordinator's commit, remembered until
     [k_forget] (a list of txids), and [k_abort]. *)
  let k_one_phase = 1
  let k_prepare = 2
  let k_commit = 3
  let k_abort = 4
  let k_commit_kept = 5
  let k_forget = 6

  (* Section writers: a part encodes its section into the record when the
     node log appends it. *)
  let encode_record kind id coordinator redos e =
    Codec.u8 e kind;
    Codec.option Txid.encode e id;
    Codec.string e coordinator;
    Codec.list S.encode_redo e redos

  let encode_resolution kind id e =
    Codec.u8 e kind;
    Txid.encode e id

  let encode_forget ids e =
    Codec.u8 e k_forget;
    Codec.list Txid.encode e ids

  let observe_remembered t =
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.set_gauge ("rm.remembered:" ^ t.rm_name)
        (float_of_int (Txid.Tbl.length t.remembered))

  (* Apply an in-doubt transaction, remembering it for [k_commit_kept]. *)
  let resolve_commit t id ~keep ~live =
    match Txid.Tbl.find_opt t.prepared_txns id with
    | Some p ->
      List.iter (S.apply t.st ~live) p.redos;
      Txid.Tbl.remove t.prepared_txns id;
      if keep then Txid.Tbl.replace t.remembered id ()
    | None -> () (* resolved before the snapshot; duplicate record *)

  (* Recovery and a standby's shipped sections: never live. *)
  let replay t payload =
    let d = Codec.decoder payload in
    let kind = Codec.get_u8 d in
    if kind = k_forget then
      List.iter (Txid.Tbl.remove t.remembered) (Codec.get_list Txid.decode d)
    else if kind = k_commit || kind = k_commit_kept then
      resolve_commit t (Txid.decode d) ~keep:(kind = k_commit_kept) ~live:false
    else if kind = k_abort then Txid.Tbl.remove t.prepared_txns (Txid.decode d)
    else begin
      let id = Codec.get_option Txid.decode d in
      let coordinator = Codec.get_string d in
      let redos = Codec.get_list S.decode_redo d in
      match id with
      | _ when kind = k_one_phase -> List.iter (S.apply t.st ~live:false) redos
      | Some id when kind = k_prepare ->
        Txid.Tbl.replace t.prepared_txns id { coordinator; redos }
      | _ -> failwith (Printf.sprintf "rm: bad record kind %d" kind)
    end

  let encode_snapshot t e =
    S.snapshot e t.st;
    Codec.int e (Txid.Tbl.length t.prepared_txns);
    Txid.Tbl.iter
      (fun id p ->
        Txid.encode e id;
        Codec.string e p.coordinator;
        Codec.list S.encode_redo e (List.filter (S.logged t.st) p.redos))
      t.prepared_txns;
    Codec.list Txid.encode e (Txid.Tbl.fold (fun id () acc -> id :: acc) t.remembered [])

  (* State and in-doubt table from a checkpoint section ([None]: empty),
     in place: the state keeps whatever it holds besides its contents. *)
  let restore t snap =
    Txid.Tbl.reset t.prepared_txns;
    Txid.Tbl.reset t.workspaces;
    Txid.Tbl.reset t.remembered;
    let d = Option.map Codec.decoder snap in
    S.restore t.st d;
    Option.iter
      (fun d ->
        let n = Codec.get_int d in
        for _ = 1 to n do
          let id = Txid.decode d in
          let coordinator = Codec.get_string d in
          let redos = Codec.get_list S.decode_redo d in
          Txid.Tbl.replace t.prepared_txns id { coordinator; redos }
        done;
        List.iter
          (fun id -> Txid.Tbl.replace t.remembered id ())
          (Codec.get_list Txid.decode d))
      d

  let relock_in_doubt t =
    Txid.Tbl.iter (fun id p -> S.relock t.st id p.redos) t.prepared_txns

  (* A standby replays shipped sections and installs a primary's snapshot
     through the same functions recovery uses. Locks are not re-asserted
     there: a standby runs no competing transactions. *)
  let attach log ~name:rm_name st =
    let t =
      {
        rm_name;
        log;
        st;
        workspaces = Txid.Tbl.create 16;
        prepared_txns = Txid.Tbl.create 8;
        remembered = Txid.Tbl.create 8;
      }
    in
    let snap, records =
      Node_log.attach log S.kind
        {
          Node_log.snapshot = encode_snapshot t;
          replay = replay t;
          install = restore t;
        }
    in
    restore t snap;
    List.iter (replay t) records;
    (* Re-assert exclusions for transactions still in doubt. *)
    relock_in_doubt t;
    t

  let name t = t.rm_name
  let log t = t.log
  let state t = t.st

  let add_redo t id redo =
    let now = S.clock t.st in
    match Txid.Tbl.find_opt t.workspaces id with
    | Some ws ->
      ws.ops <- redo :: ws.ops;
      ws.activity <- now
    | None ->
      Txid.Tbl.add t.workspaces id { ops = [ redo ]; activity = now; stale = false }

  let workspace t id =
    match Txid.Tbl.find_opt t.workspaces id with
    | Some ws -> List.rev ws.ops
    | None -> []

  let has_workspace t id = Txid.Tbl.mem t.workspaces id

  (* Detach a transaction's workspace. *)
  let take t id =
    match Txid.Tbl.find_opt t.workspaces id with
    | None -> None
    | Some ws ->
      Txid.Tbl.remove t.workspaces id;
      Some ws

  let part ?redo ?(apply = ignore) ?(durable = ignore) () =
    { Node_log.kind = S.kind; redo; apply; durable }

  let release t id () = Lock.release_all (S.locks t.st) id

  (* Updates applied at once: the logged ones as a one-phase section (none
     if nothing is logged). *)
  let one_phase t id redos ~durable =
    let redo =
      match List.filter (S.logged t.st) redos with
      | [] -> None
      | logged -> Some (encode_record k_one_phase id "" logged)
    in
    part ?redo
      ~apply:(fun () -> List.iter (S.apply t.st ~live:true) redos)
      ~durable ()

  let commit_now t redos =
    Node_log.commit t.log [ one_phase t None redos ~durable:ignore ]

  (* The workspace as a part of a commit record; the locks go once it is
     durable. *)
  let stage t id =
    match take t id with
    | None -> part ~durable:(release t id) ()
    | Some ws -> one_phase t (Some id) (List.rev ws.ops) ~durable:(release t id)

  let commit t id = Node_log.commit t.log [ stage t id ]

  (* The workspace's record rides the next force; only what was logged
     before it must be durable (and shipped) first. The locks go at the
     append. With no workspace nothing was read, and nothing waits. *)
  let commit_lazy t id =
    if has_workspace t id then begin
      let before = Node_log.tail t.log in
      Node_log.append t.log [ stage t id ];
      Node_log.force_upto t.log before
    end
    else commit t id

  (* The workspace as an in-doubt section, for a parallel commit's staged
     record or a prepare record of its own. Locks stay held. *)
  let prepare_part t id ~coordinator =
    match take t id with
    | None -> part ()
    | Some ws ->
      let redos = List.rev ws.ops in
      let logged = List.filter (S.logged t.st) redos in
      part
        ~redo:(encode_record k_prepare (Some id) coordinator logged)
        ~apply:(fun () -> Txid.Tbl.replace t.prepared_txns id { coordinator; redos })
        ()

  (* A coordinator asks only an RM that did work, so a missing workspace (a
     crash or the janitor discarded it) votes no. *)
  let prepare t id ~coordinator =
    if Txid.Tbl.mem t.workspaces id then begin
      Node_log.commit t.log [ prepare_part t id ~coordinator ];
      true
    end
    else Txid.Tbl.mem t.prepared_txns id

  (* Commit an in-doubt transaction as a part; [keep] remembers it. *)
  let resolve_part t id ~keep =
    if not (Txid.Tbl.mem t.prepared_txns id) then part ~durable:(release t id) ()
    else
      part
        ~redo:(encode_resolution (if keep then k_commit_kept else k_commit) id)
        ~apply:(fun () -> resolve_commit t id ~keep ~live:true)
        ~durable:(release t id) ()

  (* The coordinator's decision record may not be durable yet: keep the txid
     until it says so ([forget]). *)
  let commit_prepared t id =
    Node_log.commit t.log [ resolve_part t id ~keep:true ];
    observe_remembered t

  let abort t id =
    let unwritten, stale =
      match take t id with
      | Some ws -> (List.rev ws.ops, ws.stale)
      | None -> ([], false)
    in
    let resolved, prepared =
      match Txid.Tbl.find_opt t.prepared_txns id with
      | Some p ->
        ( [
            part
              ~redo:(encode_resolution k_abort id)
              ~apply:(fun () -> Txid.Tbl.remove t.prepared_txns id)
              ();
          ],
          p.redos )
      | None -> ([], [])
    in
    (* The abort section and the fixups of what the transaction held are
       one record. *)
    let fixups =
      match S.abort_fixups t.st ~stale (unwritten @ prepared) with
      | [] -> []
      | redos -> [ one_phase t None redos ~durable:ignore ]
    in
    Node_log.commit t.log (resolved @ fixups);
    release t id ()

  let mark_stale t ~older_than =
    let cutoff = S.clock t.st -. older_than in
    Txid.Tbl.fold
      (fun id ws acc ->
        if ws.activity < cutoff then begin
          ws.stale <- true;
          id :: acc
        end
        else acc)
      t.workspaces []

  (* A recovering coordinator's question; [`Unknown] aborts the
     transaction here, so a late prepare votes no. *)
  let status t id =
    if Txid.Tbl.mem t.prepared_txns id then `Prepared
    else if Txid.Tbl.mem t.remembered id then `Committed
    else begin
      abort t id;
      `Unknown
    end

  let forget t ids =
    match List.filter (Txid.Tbl.mem t.remembered) ids with
    | [] -> ()
    | known ->
      Node_log.append t.log
        [
          part
            ~redo:(encode_forget known)
            ~apply:(fun () -> List.iter (Txid.Tbl.remove t.remembered) known)
            ();
        ];
      observe_remembered t

  let participant t =
    {
      Tm.part_name = t.rm_name;
      p_local =
        Some
          {
            Tm.l_log = t.log;
            l_stage = stage t;
            l_prepare = prepare_part t;
            l_decide = (fun id -> resolve_part t id ~keep:false);
          };
      p_prepare =
        (fun id ~coordinator ->
          let yes = prepare t id ~coordinator in
          fun () -> yes);
      p_commit =
        (fun id ->
          commit_prepared t id;
          true);
      p_abort = abort t;
      p_has_work =
        (fun id -> Txid.Tbl.mem t.workspaces id || Txid.Tbl.mem t.prepared_txns id);
      p_status = (fun id -> Some (status t id));
      p_forget = forget t;
    }

  let remembered t = Txid.Tbl.fold (fun id () acc -> id :: acc) t.remembered []

  let in_doubt t =
    Txid.Tbl.fold (fun id p acc -> (id, p.coordinator) :: acc) t.prepared_txns []
end
