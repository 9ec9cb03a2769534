(* Crash-point sweep: run a mixed workload (tagged enqueues, a two-RM 2PC
   transaction, a checkpoint) and replay it once per durability boundary,
   freezing the disk exactly there. After recovery (including manual
   in-doubt resolution, as the site resolver would do), the cross-RM
   atomicity invariants must hold at EVERY crash point:

     I1  kv "got" written      =>  e1 consumed and op1's tag durable
     I2  e1 still available    =>  tag is exactly "r1" and kv untouched
     I3  "second" present      <=> tag is "r2"
     I4  tag "r2"              =>  kv "got" written (op2 preceded op3)

   This is the strongest evidence that the deferred-update logging, the
   presumed-abort protocol and the tag atomicity of §4.3 compose
   correctly. *)

module Disk = Rrq_storage.Disk
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Element = Rrq_qm.Element
module Rng = Rrq_util.Rng
module H = Rrq_test_support.Sim_harness
module C = Rrq_check
module Obs = Rrq_obs

let open_world disk =
  let tm = Tm.open_tm disk ~name:"node" in
  let qm = Qm.open_qm disk ~name:"qm@node" in
  let kv = Kvdb.open_kv disk ~name:"kv@node" in
  Qm.create_queue qm "q";
  (tm, qm, kv)

let workload disk =
  let tm, qm, kv = open_world disk in
  let h, _ = Qm.register qm ~queue:"q" ~registrant:"client" ~stable:true in
  (* op1: tagged enqueue (auto-commit) *)
  ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag:"r1" "first"));
  (* op2: 2PC across QM and KV: consume "first", record it in the db *)
  let txn = Tm.begin_txn tm in
  let id = Tm.txn_id txn in
  (match Qm.dequeue qm id h Qm.No_wait with
  | Some _ -> ()
  | None -> () (* op1's effects died with the disk; nothing to consume *));
  Kvdb.put kv id "got" "1";
  Tm.join txn (Qm.participant qm);
  Tm.join txn (Kvdb.participant kv);
  ignore (Tm.commit tm txn);
  (* checkpoint in the middle so the sweep crosses a checkpoint too *)
  Qm.checkpoint qm;
  Kvdb.checkpoint kv;
  (* op3: second tagged enqueue *)
  ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag:"r2" "second"))

(* Reopen after the freeze, resolve any in-doubt transactions against the
   recovered coordinator (what the site resolver daemon does over RPC).
   The caller must have revived the disk. *)
let recover_and_audit disk =
  let tm, qm, kv = open_world disk in
  List.iter
    (fun (id, _coord) ->
      match Tm.decision tm id with
      | `Committed -> ignore ((Qm.participant qm).Tm.p_commit id)
      | `Aborted | `Pending -> (Qm.participant qm).Tm.p_abort id)
    (Qm.in_doubt qm);
  List.iter
    (fun (id, _coord) ->
      match Tm.decision tm id with
      | `Committed -> ignore ((Kvdb.participant kv).Tm.p_commit id)
      | `Aborted | `Pending -> (Kvdb.participant kv).Tm.p_abort id)
    (Kvdb.in_doubt kv);
  let _, last = Qm.register qm ~queue:"q" ~registrant:"client" ~stable:true in
  let tag = match last with Some l -> Some l.Qm.tag | None -> None in
  let payloads =
    List.map (fun el -> el.Element.payload) (Qm.elements qm "q")
  in
  let first_present = List.mem "first" payloads in
  let second_present = List.mem "second" payloads in
  let got = Kvdb.committed_value kv "got" = Some "1" in
  (tag, first_present, second_present, got)

let check_invariants ~point (tag, first_present, second_present, got) =
  let ctx fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.sprintf "crash@%d tag=%s first=%b second=%b got=%b: %s" point
          (match tag with Some t -> t | None -> "-")
          first_present second_present got msg)
      fmt
  in
  if got then begin
    Alcotest.(check bool) (ctx "I1 got => e1 consumed") false first_present;
    Alcotest.(check bool)
      (ctx "I1 got => op1 tag durable")
      true
      (tag = Some "r1" || tag = Some "r2")
  end;
  if first_present then begin
    Alcotest.(check (option string)) (ctx "I2 e1 present => tag r1") (Some "r1") tag;
    Alcotest.(check bool) (ctx "I2 e1 present => kv untouched") false got
  end;
  Alcotest.(check bool)
    (ctx "I3 second <=> tag r2")
    (tag = Some "r2") second_present;
  if tag = Some "r2" then
    Alcotest.(check bool) (ctx "I4 tag r2 => got") true got

(* The same invariants must hold whether group commit flushes once per
   force (a free device: one sync per force) or batches them (a 1 ms
   flush, so concurrent committers ride a leader's sync), which reorders
   the apply/force interleaving. *)
let latencies = [ ("0ms", 0.0); ("1ms", 0.001) ]

let test_sweep () =
  List.iter
    (fun (pname, sync_latency) ->
      (* The generic enumerator counts the durability boundaries on a clean
         run (point 0, which must also show the fully-durable end state),
         then freezes the disk at every boundary and audits recovery. *)
      let total_syncs =
        Rrq_check.Sweep.disk_sweep
          ~make:(fun point ->
            Disk.create ~sync_latency (Printf.sprintf "%s-sweep%d" pname point))
          ~workload
          ~audit:(fun ~point disk ->
            let audit = recover_and_audit disk in
            check_invariants ~point audit;
            if point = 0 then begin
              let tag, first_present, second_present, got = audit in
              Alcotest.(check (option string)) (pname ^ ": final tag") (Some "r2") tag;
              Alcotest.(check bool) (pname ^ ": final first gone") false first_present;
              Alcotest.(check bool) (pname ^ ": final second there") true second_present;
              Alcotest.(check bool) (pname ^ ": final got") true got
            end)
          ()
      in
      Alcotest.(check bool)
        (pname ^ ": workload has enough sync points")
        true (total_syncs > 8))
    latencies

(* The same sweep, but the crash lands during the *recovery* of the first
   crash (double failures, paper-grade paranoia). *)
let test_double_crash_sweep () =
  let total_syncs =
    H.run_fiber (fun () ->
        let disk = Disk.create "clean" in
        workload disk;
        Disk.sync_count disk)
  in
  let mid = total_syncs / 2 in
  (* First crash at the midpoint; then sweep a second crash through the
     recovery + resumed workload. *)
  for point2 = 1 to 6 do
    H.run_fiber (fun () ->
        let disk = Disk.create (Printf.sprintf "double%d" point2) in
        Disk.kill_after_syncs disk mid;
        workload disk;
        Disk.revive disk;
        (* the second crash lands while the first recovery is writing *)
        Disk.kill_after_syncs disk point2;
        ignore (recover_and_audit disk);
        Disk.revive disk;
        check_invariants ~point:(1000 + point2) (recover_and_audit disk))
  done

(* ---- a crash inside the checkpoint rule --------------------------------- *)

(* The checkpoint rule fires inside [Node_log.commit], after the force and
   the parts' [durable] steps: 4 KiB records cross the 256 KiB floor within
   a hundred commits. A crash armed at the first and at the second of
   those checkpoints loses no acknowledged commit. *)
let test_crash_in_rule_checkpoint () =
  List.iter
    (fun hit ->
      let disk = Disk.create (Printf.sprintf "ckpt-crash%d" hit) in
      let acked = ref [] in
      Rrq_sim.Crashpoint.reset ();
      Fun.protect ~finally:Rrq_sim.Crashpoint.disable (fun () ->
          Rrq_sim.Crashpoint.arm ~site:"wal.ckpt:kv@node.log" ~hit (fun () ->
              Disk.kill_now disk;
              Rrq_sim.Crashpoint.crash ());
          ignore
            (H.run (fun s ->
                 ignore
                   (Rrq_sim.Sched.spawn s ~name:"committer" (fun () ->
                        let kv = Kvdb.open_kv disk ~name:"kv@node" in
                        for n = 1 to 200 do
                          let id = Txid.make ~origin:"t" ~inc:1 ~n in
                          let key = Printf.sprintf "k%03d" n in
                          Kvdb.put kv id key (String.make 4096 'v');
                          Kvdb.commit kv id;
                          acked := key :: !acked
                        done))));
          Alcotest.(check (option (pair string int)))
            (Printf.sprintf "checkpoint %d crashed" hit) None
            (Rrq_sim.Crashpoint.armed ()));
      Disk.revive disk;
      H.run_fiber (fun () ->
          let kv = Kvdb.open_kv disk ~name:"kv@node" in
          List.iter
            (fun key ->
              if Kvdb.committed_value kv key = None then
                Alcotest.failf "checkpoint %d: acknowledged %s lost" hit key)
            !acked;
          Alcotest.(check bool) "the crash cut the run short" true
            (List.length !acked < 200)))
    [ 1; 2 ]

(* ---- a torn write inside a spliced frame -------------------------------- *)

(* A 16 KiB enqueue reaches the disk as its frame header and pieces, the
   body one of them, by reference. A crash that tears the unsynced tail
   inside such a frame keeps every acknowledged enqueue byte for byte, and
   recovery cuts the segment at the end of the last whole frame. The
   device draws the kept prefix from its generator: the test takes the
   first seed whose tear lands inside the body. *)
let test_torn_spliced_enqueue () =
  let body c = String.init 16384 (fun i -> Char.chr ((Char.code c + i) land 0xff)) in
  let acked = [ body 'a'; body 'b'; body 'c' ] in
  let seg = "qm.log.seg0" in
  let run seed =
    let disk = Disk.create ~torn_writes:true ~rng:(Rng.create seed) "torn" in
    H.run_fiber (fun () ->
        let qm = Qm.open_qm disk ~name:"qm" in
        Qm.create_queue qm "q";
        let h, _ = Qm.register qm ~queue:"q" ~registrant:"client" ~stable:true in
        let enqueue tag b =
          ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag b))
        in
        List.iteri (fun i b -> enqueue (string_of_int i) b) acked;
        let valid = Option.get (Disk.file_size disk seg) in
        (* The next sync tears: the disk dies keeping a prefix of the tail. *)
        Disk.kill_after_syncs disk 1;
        enqueue "torn" (body 'z');
        (disk, valid, Option.get (Disk.file_size disk seg)))
  in
  let rec find seed =
    let disk, valid, kept = run seed in
    if kept > valid + 1024 && kept < valid + 16384 then (disk, valid) else find (seed + 1)
  in
  let disk, valid = find 0 in
  Disk.revive disk;
  H.run_fiber (fun () ->
      let qm = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check (option int)) "the segment is cut at the last whole frame"
        (Some valid) (Disk.file_size disk seg);
      Alcotest.(check bool) "every acknowledged body, byte for byte" true
        (List.map (fun el -> el.Element.payload) (Qm.elements qm "q") = acked);
      let _, last = Qm.register qm ~queue:"q" ~registrant:"client" ~stable:true in
      Alcotest.(check (option string)) "the last durable tag" (Some "2")
        (Option.map (fun l -> l.Qm.tag) last))

(* A short enqueue synced right after a spliced one is copied into a chunk
   of its own size, not a page. A crash that tears the unsynced tail
   inside the next such short frame keeps every acknowledged enqueue, and
   recovery cuts the segment at the end of the last whole frame. As
   above, the test takes the first seed whose tear lands inside the short
   frame. *)
let test_torn_short_after_spliced () =
  let big = String.init 16384 (fun i -> Char.chr ((Char.code 'q' + i) land 0xff)) in
  let acked = [ big; "short-1"; big ] in
  let seg = "qm.log.seg0" in
  let run seed =
    let disk = Disk.create ~torn_writes:true ~rng:(Rng.create seed) "torn" in
    H.run_fiber (fun () ->
        let qm = Qm.open_qm disk ~name:"qm" in
        Qm.create_queue qm "q";
        let h, _ = Qm.register qm ~queue:"q" ~registrant:"client" ~stable:true in
        let enqueue tag b =
          ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag b))
        in
        List.iteri (fun i b -> enqueue (string_of_int i) b) acked;
        let valid = Option.get (Disk.file_size disk seg) in
        Disk.kill_after_syncs disk 1;
        enqueue "torn" "short-torn";
        (disk, valid, Option.get (Disk.file_size disk seg)))
  in
  let rec find seed =
    let disk, valid, kept = run seed in
    if kept > valid + 16 && kept < valid + 64 then (disk, valid) else find (seed + 1)
  in
  let disk, valid = find 0 in
  Disk.revive disk;
  H.run_fiber (fun () ->
      let qm = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check (option int)) "the segment is cut at the last whole frame"
        (Some valid) (Disk.file_size disk seg);
      Alcotest.(check bool) "every acknowledged enqueue, byte for byte" true
        (List.map (fun el -> el.Element.payload) (Qm.elements qm "q") = acked);
      let _, last = Qm.register qm ~queue:"q" ~registrant:"client" ~stable:true in
      Alcotest.(check (option string)) "the last durable tag" (Some "2")
        (Option.map (fun l -> l.Qm.tag) last))

(* ---- named crash sites announce themselves in the trace ----------------- *)

(* When an armed [Crashpoint] fires it must emit a [Crashpoint_fired] trace
   event, so a recorded fault-injection run shows exactly where the fault
   landed. Runs one armed quickstart run per site under the observability
   layer and looks for the event. *)
let crashed_site_in_trace ~site =
  Obs.reset ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let o =
        C.Scenario.crash_at ~site ~hit:1 ~recover_after:1.0 C.Scenario.quickstart
      in
      let fired =
        List.filter
          (fun (_, e) ->
            match e with
            | Obs.Event.Crashpoint_fired { site = s; hit = h } ->
              s = site && h = 1
            | _ -> false)
          (Obs.Trace.events ())
      in
      Alcotest.(check int)
        (Printf.sprintf "%s fired exactly once in the trace" site)
        1 (List.length fired);
      Alcotest.(check bool)
        (Printf.sprintf "%s still recovers cleanly" site)
        false (C.Scenario.failed o))

let quickstart_sites () =
  let sites = C.Scenario.crash_sites C.Scenario.quickstart in
  (* One node log: one wal.sync/wal.synced pair, and the server's local
     transaction reaches tm.decided only. *)
  Alcotest.(check bool) "the probe finds a rich site space" true
    (List.length sites > 5);
  List.map fst sites

let test_crashpoint_trace_single () =
  let sites = quickstart_sites () in
  (* One site per subsystem prefix keeps the Quick tier fast. *)
  let pick prefix =
    match List.find_opt (String.starts_with ~prefix) sites with
    | Some s -> s
    | None -> Alcotest.failf "no crash site with prefix %s" prefix
  in
  List.iter
    (fun prefix -> crashed_site_in_trace ~site:(pick prefix))
    [ "wal.sync:"; "tm."; "clerk."; "server." ]

let test_crashpoint_trace_all_sites () =
  List.iter (fun site -> crashed_site_in_trace ~site) (quickstart_sites ())

let () =
  Alcotest.run "rrq-crashpoints"
    [
      ( "sweep",
        [
          Alcotest.test_case "every sync boundary" `Quick test_sweep;
          Alcotest.test_case "double crash" `Quick test_double_crash_sweep;
          Alcotest.test_case "crash inside the checkpoint rule" `Quick
            test_crash_in_rule_checkpoint;
          Alcotest.test_case "torn write inside a spliced frame" `Quick
            test_torn_spliced_enqueue;
          Alcotest.test_case "torn short frame after a spliced one" `Quick
            test_torn_short_after_spliced;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fired sites appear in the trace" `Quick
            test_crashpoint_trace_single;
          Alcotest.test_case "every named site emits its event" `Slow
            test_crashpoint_trace_all_sites;
        ] );
    ]
