module Disk = Rrq_storage.Disk
module Codec = Rrq_util.Codec
module Checksum = Rrq_util.Checksum

type t = {
  disk : Disk.t;
  base : string;
  mutable first_seg : int; (* first segment after the checkpoint *)
  mutable seg : int; (* active segment number *)
  mutable file : Disk.file;
  (* Frame bytes in segments [first_seg..seg]: those recovered at open
     plus those appended since. *)
  mutable live_bytes : int;
  (* Size of the checkpoint file last installed or found at open. *)
  mutable snapshot_bytes : int;
  (* Append/durability split for group commit: [appended_lsn] counts records
     buffered this incarnation, [durable_lsn] those known forced. *)
  mutable appended_lsn : int;
  mutable durable_lsn : int;
  (* Crash-point site names, precomputed: [sync] runs per commit batch and
     must not rebuild these strings every time. *)
  site_sync : string;
  site_synced : string;
  site_ckpt : string;
  ckpt_file : string;
  (* Metric names, precomputed for the same reason. *)
  m_appends : string;
  m_bytes : string;
  m_syncs : string;
}

type recovered = { snapshot : string option; records : string list }

let seg_name base n = Printf.sprintf "%s.seg%d" base n
let ckpt_name base = base ^ ".ckpt"

(* Frame: payload length (i64) | frame64 of payload (i64) | payload. One
   buffer per frame, handed to the device as it is: the payload's one
   copy between its encoder and the disk (a spliced string's none). A
   log shipper sends the frame as one string. *)
let frame_header = 16

let header f len sum =
  Bytes.set_int64_le f 0 (Int64.of_int len);
  Bytes.set_int64_le f 8 sum

let frame payload =
  let len = String.length payload in
  let f = Bytes.create (frame_header + len) in
  header f len (Checksum.frame64 payload);
  Bytes.blit_string payload 0 f frame_header len;
  Bytes.unsafe_to_string f

(* An encoder's contents as one frame string, spliced strings spread in. *)
let frame_enc e =
  let len = Codec.length e in
  let f = Bytes.create (frame_header + len) in
  Codec.blit e f frame_header;
  header f len (Checksum.frame64_layout f ~spliced:[] ~pos:frame_header ~len);
  Bytes.unsafe_to_string f

(* Scan a segment's contents, returning complete valid records in order
   and the length of the valid prefix they fill; the prefix is shorter
   than the contents if the scan hit a corrupt/truncated frame (meaning:
   stop scanning later segments too). *)
let scan_segment contents =
  let n = String.length contents in
  let records = ref [] in
  let pos = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if !pos + 16 > n then continue_ := false
    else begin
      let len = Int64.to_int (String.get_int64_le contents !pos) in
      let sum = String.get_int64_le contents (!pos + 8) in
      if len < 0 || !pos + 16 + len > n
         || Checksum.frame64_sub contents ~pos:(!pos + 16) ~len <> sum
      then continue_ := false
      else begin
        records := String.sub contents (!pos + 16) len :: !records;
        pos := !pos + 16 + len
      end
    end
  done;
  (List.rev !records, !pos)

(* The snapshot, the first segment after it, and the file's size. *)
let read_ckpt disk base =
  match Disk.read_file disk (ckpt_name base) with
  | None -> (None, 0, 0)
  | Some contents -> begin
    try
      let d = Codec.decoder contents in
      let seg = Codec.get_int d in
      let snapshot = Codec.get_option Codec.get_string d in
      (snapshot, seg, String.length contents)
    with Codec.Decode_error _ -> (None, 0, 0)
  end

let open_log disk ~name:base =
  let snapshot, first_seg, snapshot_bytes = read_ckpt disk base in
  (* Drop stale segments from before the checkpoint (a crash can leave them
     behind if it hit between checkpoint install and segment deletion). *)
  List.iter
    (fun f ->
      match String.length f > String.length base
            && String.sub f 0 (String.length base) = base
      with
      | true ->
        (* file names are base.segN or base.ckpt *)
        let suffix = String.sub f (String.length base)
                       (String.length f - String.length base) in
        if String.length suffix > 4 && String.sub suffix 0 4 = ".seg" then begin
          match int_of_string_opt (String.sub suffix 4 (String.length suffix - 4)) with
          | Some n when n < first_seg -> Disk.delete disk f
          | _ -> ()
        end
      | false -> ())
    (Disk.list_files disk);
  (* Accumulate newest-first and reverse once at the end: appending each
     segment's records with [@] is quadratic in total log length, which
     dominates recovery time on long multi-segment logs. *)
  let records_rev = ref [] in
  let live_bytes = ref 0 in
  let seg = ref first_seg in
  let scanning = ref true in
  while !scanning do
    match Disk.read_file disk (seg_name base !seg) with
    | None -> scanning := false
    | Some contents ->
      let recs, valid = scan_segment contents in
      records_rev := List.rev_append recs !records_rev;
      live_bytes := !live_bytes + valid;
      if valid = String.length contents then incr seg
      else begin
        (* Torn tail: durably truncate the segment to its valid prefix, so
           the next recovery scans past it into segments we append now. *)
        ignore
          (Disk.replace_atomic disk (seg_name base !seg)
             (Bytes.sub (Bytes.unsafe_of_string contents) 0 valid)
             ~spliced:[] ~len:valid);
        incr seg;
        scanning := false
      end
  done;
  (* Resume appending to a fresh segment past anything scanned, so a torn
     tail can never corrupt new records. *)
  let active =
    if Disk.exists disk (seg_name base !seg) then !seg + 1 else !seg
  in
  let file = Disk.open_file disk (seg_name base active) in
  let records = List.rev !records_rev in
  let t =
    {
      disk;
      base;
      first_seg;
      seg = active;
      file;
      live_bytes = !live_bytes;
      snapshot_bytes;
      appended_lsn = 0;
      durable_lsn = 0;
      site_sync = "wal.sync:" ^ base;
      site_synced = "wal.synced:" ^ base;
      site_ckpt = "wal.ckpt:" ^ base;
      ckpt_file = ckpt_name base;
      m_appends = "wal.appends:" ^ base;
      m_bytes = "wal.bytes:" ^ base;
      m_syncs = "wal.syncs:" ^ base;
    }
  in
  (t, { snapshot; records })

let disk t = t.disk
let name t = t.base
let appended_lsn t = t.appended_lsn
let durable_lsn t = t.durable_lsn

(* A frame of [len] payload bytes is on the device's buffer. *)
let appended t len =
  t.live_bytes <- t.live_bytes + frame_header + len;
  t.appended_lsn <- t.appended_lsn + 1;
  if Rrq_obs.enabled () then begin
    Rrq_obs.Metrics.inc t.m_appends;
    Rrq_obs.Metrics.inc ~by:len t.m_bytes;
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Wal_append { wal = t.base; lsn = t.appended_lsn; bytes = len })
  end

(* The disk never writes to what is appended to it, so a frame string goes
   down as it is. *)
let append_frame t frame =
  let n = String.length frame in
  Disk.append t.file (Bytes.unsafe_of_string frame) ~spliced:[] ~len:n;
  appended t (n - frame_header)

let append t payload = append_frame t (frame payload)

(* Same frame layout as {!append}, built straight from the encoder: its
   buffer's stretches copied once, behind the header, into a fresh
   buffer, and the spliced strings placed between them, not copied. The
   checksum runs over that layout and is the one [frame_enc] would
   compute. Every node-log commit record takes this path. *)
let append_enc t e =
  let len = Codec.length e and n = Codec.buffered e in
  let f = Bytes.create (frame_header + n) in
  Bytes.blit (Codec.bytes e) 0 f frame_header n;
  let spliced = Codec.splices e ~off:frame_header in
  header f len (Checksum.frame64_layout f ~spliced ~pos:frame_header ~len);
  Disk.append t.file f ~spliced ~len:(frame_header + len);
  appended t len

(* [Disk.sync] flushes everything buffered, so on success the durable LSN
   jumps to the append LSN — including records appended by other fibers
   while a batched flusher held the device. If the disk died (crash-point
   injection), the flush did not persist and [durable_lsn] must not move:
   group commit uses that to decide which waiters it may acknowledge. *)
let sync t =
  Rrq_sim.Crashpoint.reach t.site_sync;
  Disk.sync t.file;
  if not (Disk.is_dead t.disk) then t.durable_lsn <- t.appended_lsn;
  if Rrq_obs.enabled () then begin
    Rrq_obs.Metrics.inc t.m_syncs;
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Wal_force { wal = t.base; lsn = t.durable_lsn })
  end;
  Rrq_sim.Crashpoint.reach t.site_synced

let append_sync t payload =
  append t payload;
  sync t

let checkpoint t e write =
  Rrq_sim.Crashpoint.reach t.site_ckpt;
  let next = t.seg + 1 in
  (* [Codec.option Codec.string] of the snapshot, encoded in place. *)
  Codec.reset e;
  Codec.int e next;
  Codec.u8 e 1;
  let slot = Codec.begin_length e in
  write e;
  Codec.end_length e slot;
  let bytes = Codec.length e in
  (* The file is the encoder's buffer itself, seen as the stretches
     between its spliced strings; the encoder goes on in the buffer that
     held the checkpoint this one replaces. *)
  Codec.adopt e
    (Disk.replace_atomic t.disk t.ckpt_file (Codec.bytes e)
       ~spliced:(Codec.splices e ~off:0) ~len:bytes);
  (* The segments the snapshot covers are no longer needed. *)
  for n = t.first_seg to t.seg do
    Disk.delete t.disk (seg_name t.base n)
  done;
  t.first_seg <- next;
  t.seg <- next;
  t.file <- Disk.open_file t.disk (seg_name t.base next);
  t.live_bytes <- 0;
  (* The snapshot captures the applied effects of every appended record
     (commit paths apply before yielding), so a successful checkpoint makes
     all of them durable even if their segment was never synced. *)
  if not (Disk.is_dead t.disk) then begin
    t.durable_lsn <- t.appended_lsn;
    t.snapshot_bytes <- bytes
  end;
  if Rrq_obs.enabled () then begin
    Rrq_obs.Metrics.inc ("wal.checkpoints:" ^ t.base);
    Rrq_obs.Metrics.inc ~by:bytes ("wal.ckpt_bytes:" ^ t.base)
  end

let live_log_bytes t = t.live_bytes
let snapshot_bytes t = t.snapshot_bytes
