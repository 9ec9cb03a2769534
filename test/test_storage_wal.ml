(* Tests for the simulated disk and the write-ahead log, including crash
   and torn-write recovery properties. *)

module Disk = Rrq_storage.Disk
module Wal = Rrq_wal.Wal
module Rng = Rrq_util.Rng
module Codec = Rrq_util.Codec

(* --- Disk ---------------------------------------------------------- *)

(* A string as a layout with nothing spliced: appended as it is (the disk
   never writes to it), or copied for a replace (the disk owns what it
   replaces with). *)
let append_string f s =
  Disk.append f (Bytes.unsafe_of_string s) ~spliced:[] ~len:(String.length s)

let replace_string d name s =
  ignore (Disk.replace_atomic d name (Bytes.of_string s) ~spliced:[] ~len:(String.length s))

let replace_bytes d name buf ~len = Disk.replace_atomic d name buf ~spliced:[] ~len

(* A layout's [len] bytes, the strings spread in. *)
let flatten buf spliced len =
  let b = Buffer.create len in
  let lo =
    List.fold_left
      (fun lo (at, s) ->
        Buffer.add_subbytes b buf lo (at - lo);
        Buffer.add_string b s;
        at)
      0 spliced
  in
  Buffer.add_subbytes b buf lo (len - Buffer.length b);
  Buffer.contents b

let test_disk_sync_survives_crash () =
  let d = Disk.create "d0" in
  let f = Disk.open_file d "a" in
  append_string f "hello";
  Disk.sync f;
  append_string f "lost";
  Alcotest.(check string) "pre-crash read sees all" "hellolost" (Disk.read f);
  Disk.crash d;
  Alcotest.(check string) "post-crash only synced" "hello" (Disk.read f)

let test_disk_atomic_replace () =
  let d = Disk.create "d0" in
  replace_string d "ck" "v1";
  Disk.crash d;
  Alcotest.(check (option string)) "atomic replace durable" (Some "v1")
    (Disk.read_file d "ck");
  replace_string d "ck" "v2";
  Alcotest.(check (option string)) "replaced" (Some "v2") (Disk.read_file d "ck")

(* A buffer handed to [replace_atomic] becomes the file: it is not
   copied, the next replace hands it back, and contents the disk does not
   own alone (a spliced string) are never handed out. A dead disk takes
   nothing. *)
let test_disk_replace_hands_buffers_back () =
  let d = Disk.create "d0" in
  let a = Bytes.of_string "v1xx" and b = Bytes.of_string "v2" in
  Alcotest.(check int) "a new file hands back nothing" 0
    (Bytes.length (replace_bytes d "ck" a ~len:2));
  Alcotest.(check (option string)) "the prefix is the file" (Some "v1")
    (Disk.read_file d "ck");
  Alcotest.(check bool) "the first buffer comes back" true
    (replace_bytes d "ck" b ~len:2 == a);
  Disk.crash d;
  Alcotest.(check (option string)) "durable" (Some "v2") (Disk.read_file d "ck");
  ignore (Disk.replace_atomic d "ck" Bytes.empty ~spliced:[ (0, "v3") ] ~len:2);
  Alcotest.(check int) "a string is not handed out" 0
    (Bytes.length (replace_bytes d "ck" a ~len:2));
  Disk.kill_now d;
  Alcotest.(check bool) "a dead disk hands the buffer back" true
    (replace_bytes d "ck" b ~len:2 == b);
  Alcotest.(check (option string)) "unchanged" (Some "v1") (Disk.read_file d "ck")

let test_disk_delete_and_list () =
  let d = Disk.create "d0" in
  ignore (Disk.open_file d "x");
  ignore (Disk.open_file d "y");
  Alcotest.(check (list string)) "listed" [ "x"; "y" ] (Disk.list_files d);
  Disk.delete d "x";
  Alcotest.(check bool) "gone" false (Disk.exists d "x")

let test_disk_counters () =
  let d = Disk.create "d0" in
  let f = Disk.open_file d "a" in
  append_string f "12345";
  Disk.sync f;
  Alcotest.(check int) "synced bytes" 5 (Disk.synced_bytes d);
  Alcotest.(check int) "sync count" 1 (Disk.sync_count d);
  Disk.reset_counters d;
  Alcotest.(check int) "reset" 0 (Disk.synced_bytes d)

(* --- WAL ----------------------------------------------------------- *)

(* Install a checkpoint holding the snapshot [snap]. *)
let checkpoint w snap = Wal.checkpoint w (Codec.encoder ()) (fun e -> Codec.raw e snap)

let test_wal_roundtrip () =
  let d = Disk.create "d0" in
  let w, r0 = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "fresh: no snapshot" None r0.Wal.snapshot;
  Alcotest.(check (list string)) "fresh: no records" [] r0.Wal.records;
  Wal.append w "one";
  Wal.append w "two";
  Wal.sync w;
  let _, r1 = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "recovered" [ "one"; "two" ] r1.Wal.records

let test_wal_unsynced_lost () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "durable";
  Wal.append w "volatile";
  Disk.crash d;
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "only synced survives" [ "durable" ] r.Wal.records

let test_wal_checkpoint_truncates () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "a";
  Wal.append_sync w "b";
  checkpoint w "SNAP";
  Wal.append_sync w "c";
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "snapshot" (Some "SNAP") r.Wal.snapshot;
  Alcotest.(check (list string)) "post-ckpt records only" [ "c" ] r.Wal.records

(* The live log and the last checkpoint's size are counters the WAL keeps
   itself, and a reopen restores both from the disk. *)
let test_wal_since_checkpoint_counter () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "a";
  Alcotest.(check int) "one frame" (Wal.frame_header + 1) (Wal.live_log_bytes w);
  Alcotest.(check int) "no checkpoint yet" 0 (Wal.snapshot_bytes w);
  checkpoint w "s";
  Alcotest.(check int) "zero" 0 (Wal.live_log_bytes w);
  (* Next segment, presence byte, length, one byte of snapshot. *)
  Alcotest.(check int) "checkpoint file size" 18 (Wal.snapshot_bytes w);
  Wal.append_sync w "bc";
  let w2, _ = Wal.open_log d ~name:"log" in
  Alcotest.(check int) "recovered frame" (Wal.frame_header + 2) (Wal.live_log_bytes w2);
  Alcotest.(check int) "checkpoint size read back" 18 (Wal.snapshot_bytes w2)

let test_wal_append_after_recovery () =
  let d = Disk.create "d0" in
  let w1, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w1 "a";
  Disk.crash d;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "a recovered" [ "a" ] r.Wal.records;
  Wal.append_sync w2 "b";
  let _, r2 = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "both" [ "a"; "b" ] r2.Wal.records

let test_wal_torn_tail_truncated () =
  (* Write a frame, then corrupt its tail manually by syncing only part of
     it: emulate by appending garbage that is not a valid frame. *)
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "good";
  (* A torn half-frame at the durable tail: *)
  let f = Disk.open_file d "log.seg0" in
  append_string f "\x99\x00\x00garbage";
  Disk.sync f;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "good record kept" [ "good" ] r.Wal.records;
  Wal.append_sync w2 "after";
  let _, r2 = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "log usable after torn tail" [ "good"; "after" ]
    r2.Wal.records

let test_wal_segment_gc () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  for i = 1 to 5 do
    Wal.append_sync w (Printf.sprintf "r%d" i)
  done;
  let files_before = List.length (Disk.list_files d) in
  checkpoint w "S1";
  Wal.append_sync w "r6";
  checkpoint w "S2";
  Wal.append_sync w "r7";
  (* old segments must have been deleted *)
  let seg_files =
    List.filter
      (fun f -> String.length f > 7 && String.sub f 0 7 = "log.seg")
      (Disk.list_files d)
  in
  Alcotest.(check int) "exactly one live segment" 1 (List.length seg_files);
  Alcotest.(check bool) "file count bounded" true
    (List.length (Disk.list_files d) <= files_before + 1);
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "latest snapshot" (Some "S2") r.Wal.snapshot;
  Alcotest.(check (list string)) "post-ckpt records" [ "r7" ] r.Wal.records

let test_disk_file_size () =
  let d = Disk.create "d0" in
  Alcotest.(check (option int)) "missing file" None (Disk.file_size d "nope");
  let f = Disk.open_file d "a" in
  append_string f "12345";
  Alcotest.(check (option int)) "pending counted" (Some 5) (Disk.file_size d "a");
  Disk.sync f;
  append_string f "67";
  Alcotest.(check (option int)) "durable+pending" (Some 7) (Disk.file_size d "a")

let test_wal_lsn_split () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Alcotest.(check (pair int int)) "fresh" (0, 0)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.append w "a";
  Wal.append w "b";
  Alcotest.(check (pair int int)) "appends buffer" (2, 0)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.sync w;
  Alcotest.(check (pair int int)) "sync catches up" (2, 2)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.append w "c";
  (* A checkpoint snapshot covers applied-but-unsynced records (commit
     paths apply before yielding), so it advances the durable LSN too. *)
  checkpoint w "S";
  Alcotest.(check (pair int int)) "checkpoint is a force" (3, 3)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.append w "d";
  Disk.kill_after_syncs d 1;
  Wal.sync w;
  Alcotest.(check bool) "disk died on the sync" true (Disk.is_dead d);
  Alcotest.(check (pair int int)) "suppressed sync moves nothing" (4, 3)
    (Wal.appended_lsn w, Wal.durable_lsn w)

(* Recovery over a log spread across many segments (each reopen retires the
   active segment) must return every record in order — and do it in time
   linear in the log, not quadratic (the old accumulate-with-[@] scan). *)
let test_wal_multi_segment_recovery () =
  let d = Disk.create "d0" in
  let n_opens = 40 and per = 25 in
  for s = 0 to n_opens - 1 do
    let w, _ = Wal.open_log d ~name:"log" in
    for i = 1 to per do
      Wal.append_sync w (Printf.sprintf "s%d-%d" s i)
    done
  done;
  let t0 = Sys.time () in
  let _, r = Wal.open_log d ~name:"log" in
  let dt = Sys.time () -. t0 in
  Alcotest.(check int) "all records recovered" (n_opens * per)
    (List.length r.Wal.records);
  Alcotest.(check (option string)) "in order, oldest first" (Some "s0-1")
    (List.nth_opt r.Wal.records 0);
  Alcotest.(check (option string))
    "in order, newest last"
    (Some (Printf.sprintf "s%d-%d" (n_opens - 1) per))
    (List.nth_opt r.Wal.records ((n_opens * per) - 1));
  Alcotest.(check bool)
    (Printf.sprintf "recovery fast enough (%.3fs)" dt)
    true (dt < 2.0)

let test_wal_checkpoint_one_live_segment () =
  let d = Disk.create "d0" in
  let seg_files () =
    List.filter
      (fun f -> String.length f > 7 && String.sub f 0 7 = "log.seg")
      (Disk.list_files d)
  in
  let w, _ = Wal.open_log d ~name:"log" in
  for i = 1 to 5 do
    Wal.append_sync w (Printf.sprintf "r%d" i)
  done;
  checkpoint w "S1";
  Alcotest.(check int) "checkpoint leaves exactly one live segment" 1
    (List.length (seg_files ()));
  (* A crash between checkpoint install and segment deletion leaves stale
     pre-checkpoint segments behind; recovery must drop them unscanned.
     Resurrect one by hand (with garbage, so scanning it would show). *)
  let stale = Disk.open_file d "log.seg0" in
  append_string stale "\x99\x99garbage-not-a-frame";
  Disk.sync stale;
  Disk.crash d;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "snapshot survives" (Some "S1") r.Wal.snapshot;
  Alcotest.(check (list string)) "no pre-checkpoint records" [] r.Wal.records;
  Alcotest.(check bool) "stale segment deleted" false (Disk.exists d "log.seg0");
  Wal.append_sync w2 "r6";
  checkpoint w2 "S2";
  Alcotest.(check int) "still exactly one live segment" 1
    (List.length (seg_files ()))

let test_wal_crash_during_checkpoint_install () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  for i = 1 to 5 do
    Wal.append_sync w (Printf.sprintf "r%d" i)
  done;
  (* The next durability action is the checkpoint's atomic install: the
     crash voids the whole checkpoint, and recovery falls back to the log. *)
  Disk.kill_after_syncs d 1;
  checkpoint w "S1";
  Alcotest.(check bool) "died installing the checkpoint" true (Disk.is_dead d);
  Disk.revive d;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "no snapshot installed" None r.Wal.snapshot;
  Alcotest.(check (list string)) "all records recovered from segments"
    [ "r1"; "r2"; "r3"; "r4"; "r5" ]
    r.Wal.records;
  (* The incarnation recovers fully: a later checkpoint compacts as usual. *)
  checkpoint w2 "S2";
  Wal.append_sync w2 "r6";
  let seg_files =
    List.filter
      (fun f -> String.length f > 7 && String.sub f 0 7 = "log.seg")
      (Disk.list_files d)
  in
  Alcotest.(check int) "recovered checkpoint leaves one live segment" 1
    (List.length seg_files);
  let _, r2 = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "snapshot" (Some "S2") r2.Wal.snapshot;
  Alcotest.(check (list string)) "post-ckpt records" [ "r6" ] r2.Wal.records

let test_wal_live_log_bytes_shrinks () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  for _ = 1 to 50 do
    Wal.append_sync w (String.make 100 'x')
  done;
  let before = Wal.live_log_bytes w in
  checkpoint w "snap";
  Alcotest.(check bool) "log shrank" true (Wal.live_log_bytes w < before / 10)

(* A torn write that cuts the second of two pending frames: the crash keeps
   a prefix of the unsynced tail drawn as [Rng.int rng (pending + 1)],
   where [pending] counts both frames, and recovery returns exactly the
   first. A twin generator predicts the draws, so the device consumes the
   same randomness however it holds its pending bytes, which keeps
   replayed fault plans deterministic. *)
let test_wal_torn_write_across_frames () =
  let first = String.make 40 'a' and second = String.make 40 'b' in
  let frame r = 16 + String.length r in
  let pending = frame first + frame second in
  let predict seed =
    let r = Rng.create seed in
    if Rng.bool r then
      let keep = Rng.int r (pending + 1) in
      if keep > frame first && keep < pending then Some (keep, Rng.int64 r) else None
    else None
  in
  let rec find seed =
    match predict seed with Some p -> (seed, p) | None -> find (seed + 1)
  in
  let seed, (keep, next) = find 0 in
  let rng = Rng.create seed in
  let d = Disk.create ~torn_writes:true ~rng "d" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append w first;
  Wal.append w second;
  Disk.crash d;
  Alcotest.(check (option int)) "the drawn prefix survives" (Some keep)
    (Disk.file_size d "log.seg0");
  Alcotest.(check int64) "the same draws" next (Rng.int64 rng);
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "exactly the first frame" [ first ] r.Wal.records

(* Property: for any interleaving of appends/syncs/crashes, recovery yields
   a prefix of the appended records that includes every synced record. *)
let prop_wal_prefix_durability =
  QCheck2.Test.make ~name:"wal recovers synced-prefix" ~count:200
    QCheck2.Gen.(list_size (int_bound 60) (int_range 0 2))
    (fun script ->
      let d = Disk.create ~torn_writes:true ~rng:(Rng.create 7) "d" in
      let w = ref (fst (Wal.open_log d ~name:"log")) in
      let appended = ref [] in
      let synced_hwm = ref 0 in
      let n = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            incr n;
            let r = Printf.sprintf "r%d" !n in
            Wal.append !w r;
            appended := !appended @ [ r ]
          | 1 ->
            Wal.sync !w;
            synced_hwm := List.length !appended
          | _ ->
            Disk.crash d;
            let w', rec_ = Wal.open_log d ~name:"log" in
            w := w';
            (* Recovered records must be a prefix of appended covering all
               synced ones. *)
            let recs = rec_.Wal.records in
            let len = List.length recs in
            if len < !synced_hwm then failwith "lost synced record";
            if len > List.length !appended then failwith "phantom record";
            List.iteri
              (fun i r ->
                if List.nth !appended i <> r then failwith "order mismatch")
              recs;
            appended := recs;
            synced_hwm := len)
        script;
      true)

(* A 16 KiB payload encoded by reference: its frame reaches the disk as
   header and pieces, yet the segment holds exactly the bytes of the flat
   frame, so the format is unchanged and recovery reads the payload back. *)
let big c = String.init 16384 (fun i -> Char.chr ((Char.code c + i) land 0xff))

let spliced_record tag payload =
  let e = Codec.encoder () in
  Codec.u8 e tag;
  Codec.string e payload;
  Codec.int e 7;
  e

let test_wal_spliced_frame_format () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  let payload = big 'a' in
  let e = spliced_record 1 payload in
  Alcotest.(check bool) "the payload is spliced" true (Codec.spliced e);
  Wal.append_enc w e;
  Wal.sync w;
  Alcotest.(check (option string)) "the segment is the flat frame"
    (Some (Wal.frame (Codec.to_string e)))
    (Disk.read_file d "log.seg0");
  Alcotest.(check string) "frame_enc builds the same frame"
    (Wal.frame (Codec.to_string e)) (Wal.frame_enc e);
  Disk.crash d;
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "recovered byte for byte" [ Codec.to_string e ]
    r.Wal.records

(* A spliced string is data the disk does not own: later syncs of short
   frames fill pages the disk made, never the string, and a checkpoint
   that trades buffers with an encoder never hands the string out. *)
let test_disk_spliced_payload_not_written () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  let payload = big 'p' in
  let copy = String.init (String.length payload) (String.get payload) in
  (* The payload ends its frame: it is the newest durable chunk when the
     short frames are synced. *)
  let e = Codec.encoder () in
  Codec.u8 e 1;
  Codec.string e payload;
  Wal.append_enc w e;
  Wal.sync w;
  for i = 1 to 50 do
    Wal.append_sync w (Printf.sprintf "short-%d" i)
  done;
  Alcotest.(check bool) "the payload is byte-identical" true (payload = copy);
  (* A snapshot holding the payload by reference, then short ones that
     trade buffers with the disk, each followed by short syncs. *)
  let e = Codec.encoder () in
  Wal.checkpoint w e (fun e -> Codec.string e payload);
  for i = 1 to 3 do
    Wal.checkpoint w e (fun e -> Codec.raw e (String.make (100 * i) 's'));
    Alcotest.(check bool) "the disk never hands the payload out" true
      (Codec.bytes e != Bytes.unsafe_of_string payload);
    for j = 1 to 20 do
      Wal.append_sync w (Printf.sprintf "after-%d-%d" i j)
    done
  done;
  Alcotest.(check bool) "still byte-identical" true (payload = copy);
  Disk.crash d;
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "the last snapshot" (Some (String.make 300 's'))
    r.Wal.snapshot

(* A checkpoint whose snapshot holds a spliced string is installed as
   views of the encoder's buffer around the string: the file is the flat
   encoding, and the buffer belongs to the disk, so no later write
   through the encoder reaches the file. *)
let test_wal_spliced_checkpoint () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  let payload = big 'c' in
  let e = Codec.encoder ~size:256 () in
  let buf = Codec.bytes e in
  let snap = Codec.to_string (spliced_record 3 payload) in
  Wal.checkpoint w e (fun e ->
      Codec.u8 e 3;
      Codec.string e payload;
      Codec.int e 7);
  Alcotest.(check bool) "the encoder lets go of the buffer the file views" true
    (Codec.bytes e != buf);
  Alcotest.(check int) "and is empty" 0 (Codec.length e);
  Alcotest.(check int) "snapshot_bytes counts the spliced bytes"
    (8 + 1 + 8 + String.length snap) (Wal.snapshot_bytes w);
  let file = Disk.read_file d "log.ckpt" in
  Codec.raw e (String.make 256 'x');
  Alcotest.(check bool) "a later write leaves the file as it was" true
    (Disk.read_file d "log.ckpt" = file);
  Disk.crash d;
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "recovered byte for byte" (Some snap) r.Wal.snapshot

(* Nothing spliced: the encoder's buffer becomes the checkpoint file, and
   the next checkpoint hands it back, as before splicing existed. *)
let test_wal_checkpoint_trades_buffers () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  let e = Codec.encoder ~size:4096 () in
  let first = Codec.bytes e in
  let snap = String.make 1000 's' in
  let write e = Codec.string e snap in
  Wal.checkpoint w e write;
  Alcotest.(check bool) "the buffer went to the disk" true (Codec.bytes e != first);
  Wal.checkpoint w e write;
  Alcotest.(check bool) "and comes back at the next checkpoint" true
    (Codec.bytes e == first);
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "the snapshot"
    (Some (Codec.to_string (let e = Codec.encoder () in write e; e)))
    r.Wal.snapshot

(* A short sync after a spliced frame goes into a chunk of its own size:
   the segment is still the concatenated flat frames, and the short syncs
   do not each cost a 16 KiB page of major heap. *)
let test_disk_short_sync_after_spliced_frame () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  let bodies = Array.init 4 (fun i -> big (Char.chr (97 + i))) in
  let flat = Buffer.create 65536 in
  let n = 100 in
  let major = ref 0. in
  for i = 1 to n do
    let e = spliced_record i bodies.(i mod 4) in
    Wal.append_enc w e;
    Wal.sync w;
    Buffer.add_string flat (Wal.frame (Codec.to_string e));
    let short = Printf.sprintf "short-%d" i in
    Buffer.add_string flat (Wal.frame short);
    let _, _, before = Gc.counters () in
    Wal.append_sync w short;
    let _, _, after = Gc.counters () in
    major := !major +. (after -. before)
  done;
  Alcotest.(check bool) "the segment is the concatenated flat frames" true
    (Disk.read_durable (Disk.open_file d "log.seg0") = Buffer.contents flat);
  let page_words = 16384 / (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%d short syncs allocated %.0f major words" n !major)
    true
    (!major < float_of_int (n * page_words))

(* Spliced, unspliced and spliced again: every checkpoint hands the
   encoder's buffer to the disk as views and takes back the one the file
   it replaces viewed, so the encoder and the disk trade one buffer each
   way. Records encoded through the encoder after a cut never reach the
   checkpoint file. *)
let test_wal_checkpoints_trade_one_buffer () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  let payload = big 't' in
  let e = Codec.encoder ~size:256 () in
  let spliced e = Codec.u8 e 1; Codec.string e payload; Codec.int e 7 in
  let flat e = Codec.string e (String.make 1000 'f') in
  let digest () = Digest.string (Option.get (Disk.read_file d "log.ckpt")) in
  (* The buffer a cut hands over is the encoder's once the snapshot is
     written. *)
  let cut ?takes_back write =
    let handed = ref Bytes.empty in
    Wal.checkpoint w e (fun e ->
        write e;
        handed := Codec.bytes e);
    Option.iter
      (fun b ->
        Alcotest.(check bool) "the cut takes back the buffer the last one handed over"
          true (Codec.bytes e == b))
      takes_back;
    let file = digest () in
    for i = 1 to 3 do
      Codec.reset e;
      Codec.string e (String.make (100 * i) 'r');
      if i = 2 then Codec.string e payload;
      Wal.append_enc w e;
      Wal.sync w
    done;
    Alcotest.(check string) "records after the cut leave the file as it was"
      (Digest.to_hex file) (Digest.to_hex (digest ()));
    !handed
  in
  let a = cut spliced in
  let b = cut ~takes_back:a flat in
  Alcotest.(check bool) "two buffers" true (a != b);
  ignore (cut ~takes_back:b spliced);
  Disk.crash d;
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "the last snapshot"
    (Some (Codec.to_string (let e = Codec.encoder () in spliced e; e)))
    r.Wal.snapshot

(* A random record: short strings copied into the encoder's buffer,
   strings of a page or more spliced, odd bytes, and length-prefixed
   sections of them, in any order. *)
type op = Byte of int | Short of string | Long of int | Section of op list

let rec encode e = function
  | Byte b -> Codec.u8 e b
  | Short s -> Codec.string e s
  | Long k -> Codec.string e (String.make (Codec.splice_min + k) (Char.chr (65 + (k mod 26))))
  | Section ops ->
    let slot = Codec.begin_length e in
    List.iter (encode e) ops;
    Codec.end_length e slot

let gen_record =
  QCheck2.Gen.(
    let leaf =
      oneof
        [
          map (fun b -> Byte b) (int_bound 255);
          map (fun s -> Short s) (string_size (int_bound 24));
          map (fun k -> Long k) (int_bound 40);
        ]
    in
    list_size (int_bound 6)
      (fix
         (fun self depth ->
           if depth = 0 then leaf
           else frequency [ (4, leaf); (1, map (fun l -> Section l) (list_size (int_bound 4) (self (depth - 1)))) ])
         2))

(* Spliced or not, a record takes one path to the disk, and it leaves the
   bytes of its flat frame: the same durable segment as [Wal.append] of
   the flattened payload, the same records at reopen, and a torn crash
   recovers a prefix of them that covers every synced one. Syncing after
   every other record mixes moved and copied syncs. *)
let prop_append_enc_one_shape =
  QCheck2.Test.make ~name:"append_enc = append of the flat payload" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 6) gen_record) (int_bound 1000))
    (fun (records, seed) ->
      let encoders =
        List.map
          (fun ops ->
            let e = Codec.encoder () in
            List.iter (encode e) ops;
            e)
          records
      in
      let payloads = List.map Codec.to_string encoders in
      let a = Disk.create "a" and b = Disk.create "b" in
      let wa, _ = Wal.open_log a ~name:"log" and wb, _ = Wal.open_log b ~name:"log" in
      List.iteri
        (fun i e ->
          Wal.append_enc wa e;
          Wal.append wb (Codec.to_string e);
          if i mod 2 = 1 then (Wal.sync wa; Wal.sync wb))
        encoders;
      Wal.sync wa;
      Wal.sync wb;
      let segment d = Disk.read_durable (Disk.open_file d "log.seg0") in
      if segment a <> segment b then failwith "durable segments differ";
      if segment a <> String.concat "" (List.map Wal.frame payloads) then
        failwith "not the flat frames";
      let records d = (snd (Wal.open_log d ~name:"log")).Wal.records in
      if records a <> payloads || records b <> payloads then failwith "reopened records differ";
      let c = Disk.create ~torn_writes:true ~rng:(Rng.create seed) "c" in
      let wc, _ = Wal.open_log c ~name:"log" in
      let synced = List.length encoders / 2 in
      List.iteri
        (fun i e ->
          Wal.append_enc wc e;
          if i + 1 = synced then Wal.sync wc)
        encoders;
      Disk.crash c;
      let recovered = records c in
      let n = List.length recovered in
      if n < synced then failwith "lost a synced record";
      if recovered <> List.filteri (fun i _ -> i < n) payloads then
        failwith "not a prefix";
      true)

let suite =
  [
    Alcotest.test_case "disk: sync survives crash" `Quick
      test_disk_sync_survives_crash;
    Alcotest.test_case "disk: atomic replace" `Quick test_disk_atomic_replace;
    Alcotest.test_case "disk: delete/list" `Quick test_disk_delete_and_list;
    Alcotest.test_case "disk: counters" `Quick test_disk_counters;
    Alcotest.test_case "wal: roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: unsynced lost" `Quick test_wal_unsynced_lost;
    Alcotest.test_case "wal: checkpoint truncates" `Quick
      test_wal_checkpoint_truncates;
    Alcotest.test_case "wal: since-checkpoint counter" `Quick
      test_wal_since_checkpoint_counter;
    Alcotest.test_case "wal: append after recovery" `Quick
      test_wal_append_after_recovery;
    Alcotest.test_case "wal: torn tail truncated" `Quick
      test_wal_torn_tail_truncated;
    Alcotest.test_case "wal: segment gc" `Quick test_wal_segment_gc;
    Alcotest.test_case "disk: file_size metadata" `Quick test_disk_file_size;
    Alcotest.test_case "wal: append/durable lsn split" `Quick
      test_wal_lsn_split;
    Alcotest.test_case "wal: multi-segment recovery" `Quick
      test_wal_multi_segment_recovery;
    Alcotest.test_case "wal: checkpoint leaves one live segment" `Quick
      test_wal_checkpoint_one_live_segment;
    Alcotest.test_case "wal: crash during checkpoint install" `Quick
      test_wal_crash_during_checkpoint_install;
    Alcotest.test_case "wal: live bytes shrink at checkpoint" `Quick
      test_wal_live_log_bytes_shrinks;
    QCheck_alcotest.to_alcotest prop_wal_prefix_durability;
    Alcotest.test_case "wal: torn write across two frames" `Quick
      test_wal_torn_write_across_frames;
    Alcotest.test_case "disk: replace hands buffers back" `Quick
      test_disk_replace_hands_buffers_back;
    Alcotest.test_case "wal: spliced frame keeps the format" `Quick
      test_wal_spliced_frame_format;
    Alcotest.test_case "disk: a spliced payload is never written" `Quick
      test_disk_spliced_payload_not_written;
    Alcotest.test_case "wal: spliced checkpoint" `Quick test_wal_spliced_checkpoint;
    Alcotest.test_case "wal: checkpoint trades buffers when nothing is spliced"
      `Quick test_wal_checkpoint_trades_buffers;
    Alcotest.test_case "disk: a short sync after a spliced frame" `Quick
      test_disk_short_sync_after_spliced_frame;
    Alcotest.test_case "wal: spliced and flat checkpoints trade one buffer" `Quick
      test_wal_checkpoints_trade_one_buffer;
    QCheck_alcotest.to_alcotest prop_append_enc_one_shape;
  ]

(* --- Codec --------------------------------------------------------- *)

let test_codec_roundtrip () =
  let e = Codec.encoder () in
  Codec.int e 42;
  Codec.i64 e (-7L);
  Codec.bool e true;
  Codec.float e 3.25;
  Codec.string e "hello";
  Codec.option Codec.string e None;
  Codec.option Codec.int e (Some 9);
  Codec.list Codec.string e [ "a"; "b" ];
  Codec.pair Codec.int Codec.string e (1, "x");
  let d = Codec.decoder (Codec.to_string e) in
  Alcotest.(check int) "int" 42 (Codec.get_int d);
  Alcotest.(check int64) "i64" (-7L) (Codec.get_i64 d);
  Alcotest.(check bool) "bool" true (Codec.get_bool d);
  Alcotest.(check (float 0.0)) "float" 3.25 (Codec.get_float d);
  Alcotest.(check string) "string" "hello" (Codec.get_string d);
  Alcotest.(check (option string)) "none" None (Codec.get_option Codec.get_string d);
  Alcotest.(check (option int)) "some" (Some 9) (Codec.get_option Codec.get_int d);
  Alcotest.(check (list string)) "list" [ "a"; "b" ] (Codec.get_list Codec.get_string d);
  let p = Codec.get_pair Codec.get_int Codec.get_string d in
  Alcotest.(check (pair int string)) "pair" (1, "x") p;
  Alcotest.(check bool) "at end" true (Codec.at_end d)

let test_codec_truncated () =
  let d = Codec.decoder "\x01" in
  Alcotest.check_raises "truncated i64"
    (Codec.Decode_error "truncated input at 0 (+8 > 1)") (fun () ->
      ignore (Codec.get_i64 d))

(* An int is written and read in place: no boxed [Int64.t] per int (one
   was 3 words each way). *)
let test_codec_ints_unboxed () =
  let n = 10_000 in
  let e = Codec.encoder ~size:(8 * n) () in
  let before = Gc.minor_words () in
  for i = 1 to n do
    Codec.int e (i * 7919)
  done;
  let enc_words = Gc.minor_words () -. before in
  let d = Codec.decoder (Codec.to_string e) in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    sum := !sum + Codec.get_int d
  done;
  let dec_words = Gc.minor_words () -. before in
  Alcotest.(check int) "decoded" (7919 * n * (n + 1) / 2) !sum;
  Alcotest.(check bool)
    (Printf.sprintf "encode: %.0f words for %d ints" enc_words n)
    true (enc_words < float_of_int n);
  Alcotest.(check bool)
    (Printf.sprintf "decode: %.0f words for %d ints" dec_words n)
    true (dec_words < float_of_int n)

let prop_codec_string_roundtrip =
  QCheck2.Test.make ~name:"codec string roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_bound 20)
                   (string_size ~gen:printable (int_bound 40)))
    (fun ss ->
      let e = Codec.encoder () in
      Codec.list Codec.string e ss;
      let d = Codec.decoder (Codec.to_string e) in
      Codec.get_list Codec.get_string d = ss && Codec.at_end d)

(* A string of a page or more is kept by reference; every reading of the
   encoder sees the same bytes as if it had been copied in. *)
let test_codec_splices () =
  let big = String.make 5000 'b' and page = String.make Codec.splice_min 'p' in
  let encode e =
    Codec.int e 1;
    Codec.string e "short";
    let slot = Codec.begin_length e in
    Codec.string e big;
    Codec.u8 e 9;
    Codec.string e page;
    Codec.end_length e slot;
    Codec.string e "tail"
  in
  let e = Codec.encoder () in
  encode e;
  Alcotest.(check bool) "spliced" true (Codec.spliced e);
  let flat =
    let b = Buffer.create 16 in
    let int n = Buffer.add_int64_le b (Int64.of_int n) in
    let str s = int (String.length s); Buffer.add_string b s in
    int 1;
    str "short";
    int (8 + 5000 + 1 + 8 + Codec.splice_min);
    str big;
    Buffer.add_uint8 b 9;
    str page;
    str "tail";
    Buffer.contents b
  in
  Alcotest.(check int) "length counts spliced bytes" (String.length flat) (Codec.length e);
  Alcotest.(check bool) "to_string" true (Codec.to_string e = flat);
  let spliced = Codec.splices e ~off:0 in
  Alcotest.(check bool) "the layout spreads to the contents" true
    (flatten (Codec.bytes e) spliced (Codec.length e) = flat);
  Alcotest.(check int) "the buffer holds the rest"
    (String.length flat - 5000 - Codec.splice_min) (Codec.buffered e);
  Alcotest.(check bool) "spliced strings are held themselves" true
    (List.exists (fun (_, p) -> p == big) spliced
    && List.exists (fun (_, p) -> p == page) spliced);
  let b = Bytes.make (String.length flat + 3) '-' in
  Codec.blit e b 2;
  Alcotest.(check string) "blit" ("--" ^ flat ^ "-") (Bytes.to_string b);
  (* Exactly sized: the spliced strings spread into the buffer in place. *)
  let exact = Codec.encoder ~size:(String.length flat) () in
  encode exact;
  Alcotest.(check bool) "finish, in place" true (Codec.finish exact = flat);
  let small = Codec.encoder () in
  encode small;
  Alcotest.(check bool) "finish, grown" true (Codec.finish small = flat);
  Codec.reset e;
  Alcotest.(check bool) "reset drops the splices" false (Codec.spliced e);
  Codec.string e "x";
  Alcotest.(check string) "and starts over" "\001\000\000\000\000\000\000\000x"
    (Codec.to_string e)

(* The WAL checksums a frame as a layout: over any buffer with strings
   spliced anywhere into it, empty and unaligned stretches and strings
   included, the sum from any start in front of the first string is the
   flat one. *)
let prop_frame64_layout =
  QCheck2.Test.make ~name:"frame64 of a layout = frame64 of its bytes" ~count:500
    QCheck2.Gen.(
      let* buf = string_size (int_bound 40) in
      let* ats = list_size (int_bound 6) (int_bound (String.length buf)) in
      let* strings = list_repeat (List.length ats) (string_size (int_bound 20)) in
      let spliced = List.combine (List.sort compare ats) strings in
      let first = match spliced with (at, _) :: _ -> at | [] -> String.length buf in
      let+ pos = int_bound first in
      (buf, spliced, pos))
    (fun (buf, spliced, pos) ->
      let len = String.length buf + List.fold_left (fun n (_, s) -> n + String.length s) 0 spliced in
      let flat = flatten (Bytes.of_string buf) spliced len in
      Rrq_util.Checksum.frame64_layout (Bytes.of_string buf) ~spliced ~pos ~len:(len - pos)
      = Rrq_util.Checksum.frame64_sub flat ~pos ~len:(len - pos))

let codec_suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec truncated input" `Quick test_codec_truncated;
    Alcotest.test_case "codec ints unboxed" `Quick test_codec_ints_unboxed;
    QCheck_alcotest.to_alcotest prop_codec_string_roundtrip;
    Alcotest.test_case "codec splices long strings" `Quick test_codec_splices;
    QCheck_alcotest.to_alcotest prop_frame64_layout;
  ]

(* --- Rng / Histogram ----------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 42 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float r 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.fail "float out of bounds";
    let z = Rng.zipf r ~n:100 ~theta:0.9 in
    if z < 0 || z >= 100 then Alcotest.fail "zipf out of bounds"
  done

let test_rng_zipf_skew () =
  let r = Rng.create 7 in
  let hits = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let z = Rng.zipf r ~n:100 ~theta:0.9 in
    hits.(z) <- hits.(z) + 1
  done;
  Alcotest.(check bool) "head is hot" true (hits.(0) > hits.(50) * 5)

let test_histogram () =
  let h = Rrq_util.Histogram.create () in
  for i = 1 to 100 do
    Rrq_util.Histogram.add h (float_of_int i)
  done;
  let open Rrq_util.Histogram in
  Alcotest.(check int) "count" 100 (count h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (mean h);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (percentile h 0.99);
  Alcotest.(check (float 1e-9)) "max" 100.0 (max_value h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (min_value h)

(* Percentiles are nearest-rank over the sorted samples: the definition,
   on random samples with duplicates and infinities. *)
let prop_histogram_percentile =
  let sample =
    QCheck2.Gen.(
      oneof
        [ float_range (-5.) 5.; oneofl [ infinity; neg_infinity; 0.; 1.; 2.5 ] ])
  in
  QCheck2.Test.make ~name:"histogram percentile = nearest rank of the sorted list"
    ~count:300
    QCheck2.Gen.(pair (list_size (int_range 1 60) sample) (float_bound_inclusive 1.))
    (fun (samples, p) ->
      let h = Rrq_util.Histogram.create () in
      List.iter (Rrq_util.Histogram.add h) samples;
      let sorted = List.sort compare samples in
      let n = List.length samples in
      let at q =
        let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
        List.nth sorted (max 0 (min (n - 1) rank))
      in
      List.for_all
        (fun q -> Rrq_util.Histogram.percentile h q = at q)
        [ p; 0.; 0.5; 0.95; 0.99; 1. ]
      && Rrq_util.Histogram.min_value h = List.hd sorted
      && Rrq_util.Histogram.max_value h = List.nth sorted (n - 1))

(* The samples are sorted in place: no copy, and no float boxed per
   comparison. *)
let test_histogram_sort_allocates_nothing () =
  let h = Rrq_util.Histogram.create () in
  let r = Rng.create 3 in
  for _ = 1 to 20_000 do
    Rrq_util.Histogram.add h (Rng.float r 100.)
  done;
  let before = Gc.allocated_bytes () in
  let p99 = Rrq_util.Histogram.percentile h 0.99 in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "p99 is a sample" true (p99 > 0. && p99 < 100.);
  Alcotest.(check bool)
    (Printf.sprintf "sorting 20,000 samples allocated %.0f bytes" allocated)
    true (allocated < 1024.)

let test_table_render () =
  let t = Rrq_util.Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Rrq_util.Table.add_row t [ "1"; "2" ];
  let s = Rrq_util.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 6 = "== T =")

let util_suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng zipf skew" `Quick test_rng_zipf_skew;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "table render" `Quick test_table_render;
    QCheck_alcotest.to_alcotest prop_histogram_percentile;
    Alcotest.test_case "histogram sorts in place" `Quick
      test_histogram_sort_allocates_nothing;
  ]

let () =
  Alcotest.run "rrq-storage-wal"
    [ ("disk+wal", suite); ("codec", codec_suite); ("util", util_suite) ]
