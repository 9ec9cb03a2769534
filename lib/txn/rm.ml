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
    (* Transactions committed for a remote coordinator whose decision
       record may not be durable yet: recovery there asks this RM. *)
    remembered : (Txid.t, unit) Hashtbl.t;
  }

  (* Section kinds. The resolutions of an in-doubt transaction carry only
     its txid: [k_commit] inside its coordinator's decision record,
     [k_commit_kept] for a remote coordinator's commit, remembered until
     [k_forget] (a list of txids), and [k_abort]. *)
  let k_one_phase = 1
  let k_prepare = 2
  let k_commit = 3
  let k_abort = 4
  let k_commit_kept = 5
  let k_forget = 6

  let encode_record kind txid coordinator redos =
    let e = Codec.encoder () in
    Codec.u8 e kind;
    Txid.encode e txid;
    Codec.string e coordinator;
    Codec.list S.encode_redo e redos;
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

  let observe_remembered t =
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.set_gauge ("rm.remembered:" ^ t.rm_name)
        (float_of_int (Hashtbl.length t.remembered))

  (* Apply an in-doubt transaction, remembering it for [k_commit_kept]. *)
  let resolve_commit t id ~keep =
    match Hashtbl.find_opt t.prepared_txns id with
    | Some p ->
      List.iter (S.apply t.st) p.redos;
      Hashtbl.remove t.prepared_txns id;
      if keep then Hashtbl.replace t.remembered id ()
    | None -> () (* resolved before the snapshot; duplicate record *)

  let replay t payload =
    let d = Codec.decoder payload in
    let kind = Codec.get_u8 d in
    if kind = k_forget then
      List.iter (Hashtbl.remove t.remembered) (Codec.get_list Txid.decode d)
    else begin
      let id = Txid.decode d in
      if kind = k_commit || kind = k_commit_kept then
        resolve_commit t id ~keep:(kind = k_commit_kept)
      else if kind = k_abort then Hashtbl.remove t.prepared_txns id
      else begin
        let coordinator = Codec.get_string d in
        let redos = Codec.get_list S.decode_redo d in
        if kind = k_one_phase then List.iter (S.apply t.st) redos
        else if kind = k_prepare then
          Hashtbl.replace t.prepared_txns id { coordinator; redos }
        else failwith (Printf.sprintf "rm: unknown record kind %d" kind)
      end
    end

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
    Codec.list Txid.encode e (Hashtbl.fold (fun id () acc -> id :: acc) t.remembered []);
    Codec.to_string e

  (* State and in-doubt table from a checkpoint section ([None]: empty). *)
  let restore t snap =
    Hashtbl.reset t.prepared_txns;
    Hashtbl.reset t.workspaces;
    Hashtbl.reset t.remembered;
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
      done;
      List.iter
        (fun id -> Hashtbl.replace t.remembered id ())
        (Codec.get_list Txid.decode d)

  let relock_in_doubt t =
    Hashtbl.iter (fun id p -> S.relock t.st id p.redos) t.prepared_txns

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
        remembered = Hashtbl.create 8;
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
    relock_in_doubt t;
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

  let prepare_part t id ~coordinator =
    match Hashtbl.find_opt t.workspaces id with
    | None -> part ()
    | Some ws ->
      let redos = List.rev !ws in
      Hashtbl.remove t.workspaces id;
      part
        ~redo:(encode_record k_prepare id coordinator redos)
        ~apply:(fun () -> Hashtbl.replace t.prepared_txns id { coordinator; redos })
        ()

  let prepare t id ~coordinator =
    if Hashtbl.mem t.workspaces id then begin
      Node_log.commit t.log [ prepare_part t id ~coordinator ];
      true
    end
    else Hashtbl.mem t.prepared_txns id

  let decide_part t id =
    if Hashtbl.mem t.prepared_txns id then
      part
        ~redo:(encode_resolution k_commit id)
        ~apply:(fun () -> resolve_commit t id ~keep:false)
        ()
    else part ()

  let commit_prepared t id =
    if Hashtbl.mem t.prepared_txns id then begin
      Node_log.commit t.log
        [
          part
            ~redo:(encode_resolution k_commit_kept id)
            ~apply:(fun () -> resolve_commit t id ~keep:true)
            ();
        ];
      observe_remembered t
    end

  let abort t id =
    Hashtbl.remove t.workspaces id;
    if Hashtbl.mem t.prepared_txns id then
      Node_log.commit t.log
        [
          part
            ~redo:(encode_resolution k_abort id)
            ~apply:(fun () -> Hashtbl.remove t.prepared_txns id)
            ();
        ]

  let status t id =
    if Hashtbl.mem t.prepared_txns id then `Prepared
    else if Hashtbl.mem t.remembered id then `Committed
    else begin
      Hashtbl.remove t.workspaces id;
      `Unknown
    end

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

  let is_prepared t id = Hashtbl.mem t.prepared_txns id

  let in_doubt t =
    Hashtbl.fold (fun id p acc -> (id, p.coordinator) :: acc) t.prepared_txns []
end
