module Codec = Rrq_util.Codec
module Wal = Rrq_wal.Wal
module Group_commit = Rrq_wal.Group_commit

type kind = Tm | Qm | Kv

let kinds = [ Tm; Qm; Kv ]
let code = function Tm -> 1 | Qm -> 2 | Kv -> 3

let of_code = function
  | 1 -> Tm
  | 2 -> Qm
  | 3 -> Kv
  | n -> raise (Codec.Decode_error (Printf.sprintf "node log: bad kind %d" n))

type rm = {
  snapshot : Codec.encoder -> unit;
  replay : string -> unit;
  install : string option -> unit;
}

type part = {
  kind : kind;
  redo : (Codec.encoder -> unit) option;
  apply : unit -> unit;
  durable : unit -> unit;
}

type t = {
  wal : Wal.t;
  gc : Group_commit.t;
  mutable rms : (kind * rm) list;
  (* What recovery found, for each kind it found anything of, until that
     kind's RM attaches. *)
  mutable recovered : (kind * (string option * string list)) list;
  (* Every record and checkpoint is encoded here, each section in place:
     one buffer per node, never held across a yield. *)
  scratch : Codec.encoder;
}

(* Both records and checkpoints are a count, then (kind code, section)
   pairs. *)
let decode_sections ?pos s =
  let d = Codec.decoder ?pos s in
  let n = Codec.get_u8 d in
  List.init n (fun _ ->
      let kind = of_code (Codec.get_u8 d) in
      (kind, Codec.get_string d))

(* Each section is written in place behind its length prefix. *)
let encode_sections e sections =
  Codec.u8 e (List.length sections);
  List.iter
    (fun (kind, write) ->
      Codec.u8 e (code kind);
      let slot = Codec.begin_length e in
      write e;
      Codec.end_length e slot)
    sections

let open_log disk ~name =
  let wal, recovered = Wal.open_log disk ~name:(name ^ ".log") in
  let snap = Option.map decode_sections recovered.Wal.snapshot in
  (* One pass over the records, newest first per kind. *)
  let records = Hashtbl.create 3 in
  List.iter
    (fun r ->
      List.iter
        (fun (kind, s) ->
          Hashtbl.replace records kind
            (s :: Option.value ~default:[] (Hashtbl.find_opt records kind)))
        (decode_sections r))
    recovered.Wal.records;
  let recovered =
    List.filter_map
      (fun kind ->
        let section = Option.bind snap (List.assoc_opt kind) in
        let rs = Option.value ~default:[] (Hashtbl.find_opt records kind) in
        if section = None && rs = [] then None else Some (kind, (section, List.rev rs)))
      kinds
  in
  {
    wal;
    gc = Group_commit.create wal;
    rms = [];
    recovered;
    scratch = Codec.encoder ();
  }

let disk t = Wal.disk t.wal
let group_commit t = t.gc

let attach t kind rm =
  if List.mem_assoc kind t.rms then invalid_arg "Node_log.attach: kind already attached";
  t.rms <- t.rms @ [ (kind, rm) ];
  let found = Option.value ~default:(None, []) (List.assoc_opt kind t.recovered) in
  t.recovered <- List.remove_assoc kind t.recovered;
  found

(* ---- checkpoints ------------------------------------------------------ *)

let encode_snapshot t e =
  encode_sections e (List.map (fun (kind, rm) -> (kind, rm.snapshot)) t.rms)

let snapshot t =
  let e = Codec.encoder () in
  encode_snapshot t e;
  Codec.to_string e

(* The snapshot holds the applied effects of every appended record (commit
   applies before it yields), so the checkpoint makes them all durable. *)
let checkpoint t = Wal.checkpoint t.wal t.scratch (encode_snapshot t)

(* The live log is cut once it holds as many bytes as the last snapshot,
   and never below this floor: what a short-record workload logs between
   a few dozen commits' worth of snapshots costs more to re-encode than to
   keep. *)
let checkpoint_floor = 256 * 1024

let checkpoint_due wal =
  Wal.live_log_bytes wal >= max (Wal.snapshot_bytes wal) checkpoint_floor

(* The one checkpoint rule, checked right after every append, with no
   yield before the checkpoint it takes. Checkpoint bytes written then
   never exceed log bytes appended plus one snapshot, and the live log
   never holds much more than one snapshot. No checkpoint is cut while
   recovery holds sections of a kind whose RM has not attached yet (a
   node opening its RMs one by one): the snapshot would drop them. *)
let maybe_checkpoint t =
  if t.recovered = [] && checkpoint_due t.wal then checkpoint t

(* ---- commit ----------------------------------------------------------- *)

let append_sections t sections =
  let e = t.scratch in
  Codec.reset e;
  encode_sections e sections;
  Group_commit.append_enc t.gc e

(* Append the parts' sections as one record (none if no part logs
   anything) and apply every part; whether anything was appended. The
   sections are encoded here, after their parts were built and before
   any part applies, with no yield in between: what they log is what the
   parts held when they were built. *)
let append_apply t parts =
  let sections =
    List.filter_map (fun p -> Option.map (fun e -> (p.kind, e)) p.redo) parts
  in
  if sections <> [] then append_sections t sections;
  List.iter (fun p -> p.apply ()) parts;
  sections <> []

let commit t parts =
  if append_apply t parts then Group_commit.force t.gc;
  List.iter (fun p -> p.durable ()) parts;
  maybe_checkpoint t

let append t parts =
  ignore (append_apply t parts);
  List.iter (fun p -> p.durable ()) parts;
  maybe_checkpoint t

let force t = Group_commit.force t.gc
let tail t = Wal.appended_lsn t.wal
let durable t = Wal.durable_lsn t.wal

let force_upto t lsn =
  if
    lsn > Wal.durable_lsn t.wal
    || (Group_commit.shipping t.gc && lsn > Group_commit.shipped_lsn t.gc)
  then force t

let live_log_bytes t = Wal.live_log_bytes t.wal

(* ---- replication ------------------------------------------------------ *)

let quiet t =
  Wal.appended_lsn t.wal = Wal.durable_lsn t.wal
  && not (Group_commit.ship_in_flight t.gc)

(* Each shipped record is the primary's WAL frame, appended verbatim (so a
   standby crash recovers it through [open_log] like its own); its
   sections are read from behind the frame header. *)
let standby_apply t frames =
  List.iter
    (fun f ->
      Group_commit.append_frame t.gc f;
      List.iter
        (fun (kind, s) ->
          match List.assoc_opt kind t.rms with
          | Some rm -> rm.replay s
          | None -> ())
        (decode_sections ~pos:Wal.frame_header f))
    frames;
  Group_commit.force t.gc;
  maybe_checkpoint t

let standby_install t snap =
  let sections = decode_sections snap in
  List.iter (fun (kind, rm) -> rm.install (List.assoc_opt kind sections)) t.rms;
  checkpoint t
