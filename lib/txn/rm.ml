module Codec = Rrq_util.Codec
module Wal = Rrq_wal.Wal
module Group_commit = Rrq_wal.Group_commit
module Disk = Rrq_storage.Disk

module type STATE = sig
  type state
  type redo

  val empty : unit -> state
  val encode_redo : Codec.encoder -> redo -> unit
  val decode_redo : Codec.decoder -> redo
  val apply : state -> redo -> unit
  val snapshot : Codec.encoder -> state -> unit
  val restore : Codec.decoder -> state
  val relock : state -> Txid.t -> redo list -> unit
end

module Make (S : STATE) = struct
  type prepared = { coordinator : string; redos : S.redo list }

  type t = {
    rm_name : string;
    wal : Wal.t;
    gc : Group_commit.t;
    mutable st : S.state; (* replaced wholesale by a standby install *)
    workspaces : (Txid.t, S.redo list ref) Hashtbl.t; (* newest first *)
    prepared_txns : (Txid.t, prepared) Hashtbl.t;
  }

  (* Log record kinds. *)
  let k_one_phase = 1
  let k_prepare = 2
  let k_commit = 3
  let k_abort = 4
  let k_apply_now = 5

  let encode_record kind txid_opt coordinator redos =
    let e = Codec.encoder () in
    Codec.u8 e kind;
    Codec.option Txid.encode e txid_opt;
    Codec.string e coordinator;
    Codec.list S.encode_redo e redos;
    Codec.to_string e

  let decode_record payload =
    let d = Codec.decoder payload in
    let kind = Codec.get_u8 d in
    let txid = Codec.get_option Txid.decode d in
    let coordinator = Codec.get_string d in
    let redos = Codec.get_list S.decode_redo d in
    (kind, txid, coordinator, redos)

  let replay t payload =
    let kind, txid, coordinator, redos = decode_record payload in
    match kind with
    | k when k = k_one_phase || k = k_apply_now ->
      List.iter (S.apply t.st) redos
    | k when k = k_prepare -> begin
      match txid with
      | Some id -> Hashtbl.replace t.prepared_txns id { coordinator; redos }
      | None -> failwith "rm: prepare record without txid"
    end
    | k when k = k_commit -> begin
      match txid with
      | Some id -> begin
        match Hashtbl.find_opt t.prepared_txns id with
        | Some p ->
          List.iter (S.apply t.st) p.redos;
          Hashtbl.remove t.prepared_txns id
        | None -> () (* resolved before the snapshot; duplicate record *)
      end
      | None -> failwith "rm: commit record without txid"
    end
    | k when k = k_abort -> begin
      match txid with
      | Some id -> Hashtbl.remove t.prepared_txns id
      | None -> failwith "rm: abort record without txid"
    end
    | k -> failwith (Printf.sprintf "rm: unknown record kind %d" k)

  let encode_snapshot t =
    let e = Codec.encoder () in
    S.snapshot e t.st;
    Codec.int e (Hashtbl.length t.prepared_txns);
    Hashtbl.iter
      (fun id p ->
        Txid.encode e id;
        Codec.string e p.coordinator;
        Codec.list S.encode_redo e p.redos)
      t.prepared_txns;
    Codec.to_string e

  let open_rm disk ~name:rm_name =
    let wal, recovered = Wal.open_log disk ~name:(rm_name ^ ".wal") in
    let gc = Group_commit.create wal in
    let st, prepared_txns =
      match recovered.Wal.snapshot with
      | None -> (S.empty (), Hashtbl.create 8)
      | Some snap ->
        let d = Codec.decoder snap in
        let st = S.restore d in
        let n = Codec.get_int d in
        let tbl = Hashtbl.create 8 in
        for _ = 1 to n do
          let id = Txid.decode d in
          let coordinator = Codec.get_string d in
          let redos = Codec.get_list S.decode_redo d in
          Hashtbl.replace tbl id { coordinator; redos }
        done;
        (st, tbl)
    in
    let t =
      { rm_name; wal; gc; st; workspaces = Hashtbl.create 16; prepared_txns }
    in
    List.iter (replay t) recovered.Wal.records;
    (* Re-assert exclusions for transactions still in doubt. *)
    Hashtbl.iter (fun id p -> S.relock t.st id p.redos) t.prepared_txns;
    t

  let name t = t.rm_name
  let state t = t.st

  let add_redo t id redo =
    match Hashtbl.find_opt t.workspaces id with
    | Some ws -> ws := redo :: !ws
    | None -> Hashtbl.add t.workspaces id (ref [ redo ])

  let workspace t id =
    match Hashtbl.find_opt t.workspaces id with
    | Some ws -> List.rev !ws
    | None -> []

  let has_workspace t id = Hashtbl.mem t.workspaces id

  let commit_one_phase t id =
    match Hashtbl.find_opt t.workspaces id with
    | None -> ()
    | Some ws ->
      let redos = List.rev !ws in
      Hashtbl.remove t.workspaces id;
      (* Group-commit discipline: append, apply in memory without yielding,
         then force (which may park the fiber) before acknowledging. *)
      Group_commit.append t.gc (encode_record k_one_phase (Some id) "" redos);
      List.iter (S.apply t.st) redos;
      Group_commit.force t.gc

  let prepare t id ~coordinator =
    match Hashtbl.find_opt t.workspaces id with
    | None -> true (* read-only here: nothing to make durable *)
    | Some ws ->
      let redos = List.rev !ws in
      Hashtbl.remove t.workspaces id;
      Group_commit.append t.gc
        (encode_record k_prepare (Some id) coordinator redos);
      Hashtbl.replace t.prepared_txns id { coordinator; redos };
      Group_commit.force t.gc;
      true

  (* The lazy commit record (see Group_commit): append and apply, but do
     not force. [on_durable] runs once the record is durable; for an
     already resolved transaction, once whatever resolved it is. *)
  let commit_prepared t id ~on_durable =
    (match Hashtbl.find_opt t.prepared_txns id with
    | None -> () (* already resolved (idempotent) *)
    | Some p ->
      Group_commit.append t.gc (encode_record k_commit (Some id) "" []);
      List.iter (S.apply t.st) p.redos;
      Hashtbl.remove t.prepared_txns id);
    Group_commit.when_durable t.gc on_durable

  let abort t id =
    Hashtbl.remove t.workspaces id;
    match Hashtbl.find_opt t.prepared_txns id with
    | None -> ()
    | Some _ ->
      Group_commit.append t.gc (encode_record k_abort (Some id) "" []);
      Hashtbl.remove t.prepared_txns id;
      Group_commit.force t.gc

  let is_prepared t id = Hashtbl.mem t.prepared_txns id

  let in_doubt t =
    Hashtbl.fold (fun id p acc -> (id, p.coordinator) :: acc) t.prepared_txns []

  let apply_now t redos =
    Group_commit.append t.gc (encode_record k_apply_now None "" redos);
    List.iter (S.apply t.st) redos;
    Group_commit.force t.gc

  let force_log t = Group_commit.force t.gc
  let group_commit t = t.gc

  (* ---- warm-standby replication target --------------------------------
     The backup side of WAL shipping: shipped records are appended verbatim
     into this RM's OWN log (so a backup crash recovers through the native
     path) and replayed into memory immediately — the standby is warm by
     construction. Locks are not re-asserted here: a standby runs no
     competing transactions, and promotion resolves every in-doubt entry
     before serving. *)

  let standby_apply t payload =
    Group_commit.append t.gc payload;
    replay t payload

  let standby_install t snapshot =
    let d = Codec.decoder snapshot in
    let st = S.restore d in
    let n = Codec.get_int d in
    Hashtbl.reset t.prepared_txns;
    Hashtbl.reset t.workspaces;
    for _ = 1 to n do
      let id = Txid.decode d in
      let coordinator = Codec.get_string d in
      let redos = Codec.get_list S.decode_redo d in
      Hashtbl.replace t.prepared_txns id { coordinator; redos }
    done;
    t.st <- st;
    (* Restart our own log from the installed image. *)
    Group_commit.checkpoint t.gc (encode_snapshot t)

  let checkpoint t = Group_commit.checkpoint t.gc (encode_snapshot t)

  let maybe_checkpoint t ~every =
    if Wal.records_since_checkpoint t.wal >= every then checkpoint t

  let records_since_checkpoint t = Wal.records_since_checkpoint t.wal
  let live_log_bytes t = Wal.live_log_bytes t.wal
end
