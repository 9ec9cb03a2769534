module Codec = Rrq_util.Codec

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
  val kind : Node_log.kind
end

module Make (S : STATE) = struct
  type prepared = { coordinator : string; redos : S.redo list }

  type t = {
    rm_name : string;
    log : Node_log.t;
    mutable st : S.state; (* replaced wholesale by a standby install *)
    workspaces : (Txid.t, S.redo list ref) Hashtbl.t; (* newest first *)
    prepared_txns : (Txid.t, prepared) Hashtbl.t;
  }

  (* Section kinds. *)
  let k_one_phase = 1
  let k_prepare = 2
  let k_commit = 3
  let k_abort = 4

  let encode_record kind txid coordinator redos =
    let e = Codec.encoder () in
    Codec.u8 e kind;
    Txid.encode e txid;
    Codec.string e coordinator;
    Codec.list S.encode_redo e redos;
    e

  let decode_record payload =
    let d = Codec.decoder payload in
    let kind = Codec.get_u8 d in
    let id = Txid.decode d in
    let coordinator = Codec.get_string d in
    let redos = Codec.get_list S.decode_redo d in
    (kind, id, coordinator, redos)

  let replay t payload =
    let kind, id, coordinator, redos = decode_record payload in
    match kind with
    | k when k = k_one_phase -> List.iter (S.apply t.st) redos
    | k when k = k_prepare ->
      Hashtbl.replace t.prepared_txns id { coordinator; redos }
    | k when k = k_commit -> begin
      match Hashtbl.find_opt t.prepared_txns id with
      | Some p ->
        List.iter (S.apply t.st) p.redos;
        Hashtbl.remove t.prepared_txns id
      | None -> () (* resolved before the snapshot; duplicate record *)
    end
    | k when k = k_abort -> Hashtbl.remove t.prepared_txns id
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

  (* State and in-doubt table from a checkpoint section ([None]: empty). *)
  let restore t snap =
    Hashtbl.reset t.prepared_txns;
    Hashtbl.reset t.workspaces;
    match snap with
    | None -> t.st <- S.empty ()
    | Some snap ->
      let d = Codec.decoder snap in
      t.st <- S.restore d;
      let n = Codec.get_int d in
      for _ = 1 to n do
        let id = Txid.decode d in
        let coordinator = Codec.get_string d in
        let redos = Codec.get_list S.decode_redo d in
        Hashtbl.replace t.prepared_txns id { coordinator; redos }
      done

  (* A standby replays shipped sections and installs a primary's snapshot
     through the same functions recovery uses. Locks are not re-asserted
     there: a standby runs no competing transactions. *)
  let attach log ~name:rm_name =
    let t =
      {
        rm_name;
        log;
        st = S.empty ();
        workspaces = Hashtbl.create 16;
        prepared_txns = Hashtbl.create 8;
      }
    in
    let snap, records =
      Node_log.attach log S.kind
        {
          Node_log.snapshot = (fun () -> encode_snapshot t);
          replay = replay t;
          install = restore t;
        }
    in
    restore t snap;
    List.iter (replay t) records;
    (* Re-assert exclusions for transactions still in doubt. *)
    Hashtbl.iter (fun id p -> S.relock t.st id p.redos) t.prepared_txns;
    t

  let open_rm disk ~name = attach (Node_log.open_log disk ~name) ~name
  let name t = t.rm_name
  let log t = t.log
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

  let part ?redo ?(apply = ignore) () =
    { Node_log.kind = S.kind; redo; apply; durable = ignore }

  let stage t id =
    match Hashtbl.find_opt t.workspaces id with
    | None -> part ()
    | Some ws ->
      let redos = List.rev !ws in
      Hashtbl.remove t.workspaces id;
      part
        ~redo:(encode_record k_one_phase id "" redos)
        ~apply:(fun () -> List.iter (S.apply t.st) redos)
        ()

  let prepare t id ~coordinator =
    match Hashtbl.find_opt t.workspaces id with
    | None -> true (* read-only here: nothing to make durable *)
    | Some ws ->
      let redos = List.rev !ws in
      Hashtbl.remove t.workspaces id;
      Node_log.commit t.log
        [
          part
            ~redo:(encode_record k_prepare id coordinator redos)
            ~apply:(fun () ->
              Hashtbl.replace t.prepared_txns id { coordinator; redos })
            ();
        ];
      true

  let commit_prepared t id =
    match Hashtbl.find_opt t.prepared_txns id with
    | None -> () (* already resolved (idempotent) *)
    | Some p ->
      Node_log.commit t.log
        [
          part
            ~redo:(encode_record k_commit id "" [])
            ~apply:(fun () ->
              List.iter (S.apply t.st) p.redos;
              Hashtbl.remove t.prepared_txns id)
            ();
        ]

  let abort t id =
    Hashtbl.remove t.workspaces id;
    if Hashtbl.mem t.prepared_txns id then
      Node_log.commit t.log
        [
          part
            ~redo:(encode_record k_abort id "" [])
            ~apply:(fun () -> Hashtbl.remove t.prepared_txns id)
            ();
        ]

  let is_prepared t id = Hashtbl.mem t.prepared_txns id

  let in_doubt t =
    Hashtbl.fold (fun id p acc -> (id, p.coordinator) :: acc) t.prepared_txns []
end
