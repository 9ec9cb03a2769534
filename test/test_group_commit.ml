(* Group commit (Rrq_wal.Group_commit): batching behavior and, more
   importantly, the crash-safety contract — a crash between a commit
   record's append and its batched sync may lose only transactions that
   were never acknowledged. "Acknowledged" is modeled honestly: a commit
   counts as acked only if force returned while the disk was still alive
   (a process that observes its own disk dead is about to be declared
   crashed, so nothing it says afterwards reaches a client). *)

module Disk = Rrq_storage.Disk
module Wal = Rrq_wal.Wal
module Group_commit = Rrq_wal.Group_commit
module Sched = Rrq_sim.Sched
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Element = Rrq_qm.Element
module Rng = Rrq_util.Rng
module H = Rrq_test_support.Sim_harness

(* A 1 ms flush: slow enough that concurrent committers outpace the device,
   so group commit batches instead of sealing every force at once. *)
let sync_latency = 0.001

(* ---- WAL-level batching ------------------------------------------------ *)

(* N concurrent committers, one (or very few) physical syncs; every record
   durable once everyone's force returned. *)
let test_wal_batching_coalesces () =
  H.run_fiber (fun () ->
      let disk = Disk.create ~sync_latency "gc" in
      let wal, _ = Wal.open_log disk ~name:"log" in
      let gc = Group_commit.create wal in
      let n = 10 in
      let fibers =
        List.init n (fun i ->
            Sched.fork ~name:(Printf.sprintf "c%d" i) (fun () ->
                Group_commit.append_force gc (Printf.sprintf "r%d" i)))
      in
      while List.exists Sched.alive fibers do
        Sched.sleep 0.0001
      done;
      Alcotest.(check int) "every committer forced" n (Group_commit.forces gc);
      Alcotest.(check bool)
        (Printf.sprintf "syncs (%d) < forces (%d)" (Group_commit.syncs gc) n)
        true
        (Group_commit.syncs gc < n);
      Alcotest.(check int) "durable lsn caught up" (Wal.appended_lsn wal)
        (Wal.durable_lsn wal);
      Disk.crash disk;
      let _, r = Wal.open_log disk ~name:"log" in
      Alcotest.(check int) "all records durable" n (List.length r.Wal.records))

(* Outside a fiber group commit must degrade to a direct sync rather than
   touch the scheduler, and count it as an idle seal of one. *)
let test_force_outside_fiber () =
  let disk = Disk.create "gc" in
  let wal, _ = Wal.open_log disk ~name:"log" in
  let gc = Group_commit.create wal in
  Group_commit.append_force gc "solo";
  Alcotest.(check int) "synced directly" 1 (Group_commit.syncs gc);
  Alcotest.(check (list (pair string int)))
    "one idle seal"
    [ ("full", 0); ("timeout", 0); ("idle", 1); ("rate", 0) ]
    (Group_commit.seal_counts gc);
  Disk.crash disk;
  let _, r = Wal.open_log disk ~name:"log" in
  Alcotest.(check (list string)) "durable" [ "solo" ] r.Wal.records

(* force with nothing undurable must not touch the device. *)
let test_force_idempotent () =
  let disk = Disk.create "gc" in
  let wal, _ = Wal.open_log disk ~name:"log" in
  let gc = Group_commit.create wal in
  Group_commit.append_force gc "a";
  let syncs = Group_commit.syncs gc in
  Group_commit.force gc;
  Group_commit.force gc;
  Alcotest.(check int) "no extra syncs" syncs (Group_commit.syncs gc)

(* ---- acked-commit durability under crash points ------------------------ *)

(* Preload a queue, then drain it with [servers] concurrent auto-committed
   dequeues through group commit while the disk is rigged to die at sync
   boundary [point]. Returns (acked eids, eids remaining after recovery,
   preloaded eids). *)
let drain_with_crash ~torn ~servers ~jobs ~point =
  H.run_fiber (fun () ->
      let disk =
        if torn then
          Disk.create ~sync_latency ~torn_writes:true ~rng:(Rng.create 11) "gc"
        else Disk.create ~sync_latency "gc"
      in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "q";
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"c" ~stable:false in
      let preloaded =
        List.init jobs (fun i ->
            Qm.auto_commit qm (fun id ->
                Qm.enqueue qm id h (Printf.sprintf "job%d" i)))
      in
      (* Count (and crash) only the drain phase's durability boundaries. *)
      Disk.reset_counters disk;
      (match point with Some p -> Disk.kill_after_syncs disk p | None -> ());
      let acked = ref [] in
      let fibers =
        List.init servers (fun i ->
            Sched.fork ~name:(Printf.sprintf "s%d" i) (fun () ->
                let rec loop () =
                  match
                    Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.No_wait)
                  with
                  | Some el ->
                    (* The ack decision, taken the instant force returns:
                       only a live process can answer a client. *)
                    if not (Disk.is_dead disk) then
                      acked := el.Element.eid :: !acked;
                    loop ()
                  | None -> ()
                in
                loop ()))
      in
      while List.exists Sched.alive fibers do
        Sched.sleep 0.0001
      done;
      let syncs = Disk.sync_count disk in
      Disk.revive disk;
      (* Fresh incarnation recovers from whatever the disk retained. *)
      let qm' = Qm.open_qm disk ~name:"qm" in
      let remaining =
        List.map (fun el -> el.Element.eid) (Qm.elements qm' "q")
      in
      (!acked, remaining, preloaded, syncs))

let check_drain ~ctx (acked, remaining, preloaded, _syncs) =
  (* Safety: an acknowledged dequeue is durable — its element is gone. *)
  List.iter
    (fun eid ->
      if List.mem eid remaining then
        Alcotest.failf "%s: acked dequeue of eid %Ld lost by recovery" ctx eid)
    acked;
  (* Sanity: recovery invents nothing. *)
  List.iter
    (fun eid ->
      if not (List.mem eid preloaded) then
        Alcotest.failf "%s: phantom eid %Ld after recovery" ctx eid)
    remaining

let test_acked_commit_sweep () =
  let servers = 6 and jobs = 18 in
  (* Clean run: everything acked and drained; also counts the boundaries. *)
  let (acked, remaining, _, total_syncs) as clean =
    drain_with_crash ~torn:false ~servers ~jobs ~point:None
  in
  check_drain ~ctx:"clean" clean;
  Alcotest.(check int) "clean: all acked" jobs (List.length acked);
  Alcotest.(check int) "clean: queue drained" 0 (List.length remaining);
  Alcotest.(check bool) "clean: batching happened" true (total_syncs < jobs);
  for point = 1 to total_syncs do
    check_drain
      ~ctx:(Printf.sprintf "crash@%d" point)
      (drain_with_crash ~torn:false ~servers ~jobs ~point:(Some point))
  done

(* Same sweep with torn writes: the dying flush may persist a partial
   frame, which recovery must truncate without losing acked commits. *)
let test_acked_commit_sweep_torn () =
  let servers = 6 and jobs = 18 in
  let _, _, _, total_syncs =
    drain_with_crash ~torn:true ~servers ~jobs ~point:None
  in
  for point = 1 to total_syncs do
    check_drain
      ~ctx:(Printf.sprintf "torn-crash@%d" point)
      (drain_with_crash ~torn:true ~servers ~jobs ~point:(Some point))
  done

(* ---- adaptive sealing: low-concurrency regression fix ----------------- *)

(* One sync per commit serializes on the device, so its throughput is the
   device ceiling 1/sync_latency at every server count (B12). *)
let ceiling = 1.0 /. sync_latency

let drain servers =
  Rrq_harness.E_group_commit.one_run ~servers ~jobs:200 ~sync_latency

(* A fixed batch window at 1 server would cost a window's worth of latency
   per commit. Adaptive sealing must detect the idle device and seal every
   force at once: 1-server throughput within 5% of the device ceiling,
   while still batching (beating the ceiling) once enough servers contend
   for the device. *)
let test_adaptive_single_server_parity () =
  let ada = drain 1 in
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% of the device ceiling (%.0f vs %.0f)"
       ada.commits_per_sec ceiling)
    true
    (ada.commits_per_sec >= 0.95 *. ceiling)

let test_adaptive_batches_under_load () =
  let ada = drain 8 in
  Alcotest.(check bool)
    (Printf.sprintf "batches at 8 servers (%.0f >= %.0f)" ada.commits_per_sec
       ceiling)
    true
    (ada.commits_per_sec >= ceiling);
  Alcotest.(check bool) "adaptive syncs per commit below 1 under load" true
    (ada.syncs_per_commit < 1.0)

(* ---- 2PC decision durability under the batched force ------------------- *)

(* A two-RM transaction committed through group commit: if the
   coordinator reported Committed while its disk was alive, the decision
   (and both RMs' effects) must survive any crash point; the decision is
   never observable before it is durable. *)
let twopc_with_crash ~point =
  H.run_fiber (fun () ->
      let disk = Disk.create ~sync_latency "gc" in
      let open_world () =
        let tm = Tm.open_tm disk ~name:"node" in
        let qm = Qm.open_qm disk ~name:"qm@node" in
        let kv = Kvdb.open_kv disk ~name:"kv@node" in
        Qm.create_queue qm "q";
        (tm, qm, kv)
      in
      let tm, qm, kv = open_world () in
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"c" ~stable:false in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "first"));
      (match point with Some p -> Disk.kill_after_syncs disk p | None -> ());
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      Kvdb.put kv id "got" "1";
      Tm.join txn (Qm.participant qm);
      Tm.join txn (Kvdb.participant kv);
      let outcome = Tm.commit tm txn in
      let acked = outcome = Tm.Committed && not (Disk.is_dead disk) in
      Disk.revive disk;
      let tm', qm', kv' = open_world () in
      (* A staged record recovered without its decision is resolved by
         asking the participants first. *)
      Tm.set_resolver tm' (fun pname ->
          if pname = "qm@node" then Some (Qm.participant qm')
          else if pname = "kv@node" then Some (Kvdb.participant kv')
          else None);
      Tm.recover_pending tm';
      Sched.sleep 0.05;
      let resolve in_doubt participant =
        List.iter
          (fun (txid, _coord) ->
            match Tm.decision tm' txid with
            | `Committed -> ignore (participant.Tm.p_commit txid)
            | `Aborted | `Pending -> participant.Tm.p_abort txid)
          in_doubt
      in
      resolve (Qm.in_doubt qm') (Qm.participant qm');
      resolve (Kvdb.in_doubt kv') (Kvdb.participant kv');
      let consumed = Qm.elements qm' "q" = [] in
      let got = Kvdb.committed_value kv' "got" = Some "1" in
      (acked, consumed, got))

let test_twopc_decision_sweep () =
  let acked, consumed, got = twopc_with_crash ~point:None in
  Alcotest.(check bool) "clean: acked" true acked;
  Alcotest.(check bool) "clean: consumed" true consumed;
  Alcotest.(check bool) "clean: kv written" true got;
  for point = 1 to 10 do
    let acked, consumed, got = twopc_with_crash ~point:(Some point) in
    let ctx = Printf.sprintf "crash@%d" point in
    if acked then begin
      Alcotest.(check bool) (ctx ^ ": acked => element consumed") true consumed;
      Alcotest.(check bool) (ctx ^ ": acked => kv durable") true got
    end
    else
      (* Unacknowledged: both RMs must agree either way (atomicity). *)
      Alcotest.(check bool)
        (ctx ^ ": unacked still atomic")
        true
        (consumed = got || (not consumed && not got))
  done

let () =
  Alcotest.run "rrq-group-commit"
    [
      ( "wal",
        [
          Alcotest.test_case "batching coalesces syncs" `Quick
            test_wal_batching_coalesces;
          Alcotest.test_case "force outside fiber" `Quick
            test_force_outside_fiber;
          Alcotest.test_case "force is idempotent" `Quick test_force_idempotent;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "1-server commits/s within 5% of device ceiling"
            `Quick test_adaptive_single_server_parity;
          Alcotest.test_case "batches under load" `Quick
            test_adaptive_batches_under_load;
        ] );
      ( "crashpoints",
        [
          Alcotest.test_case "acked commits survive every sync boundary"
            `Quick test_acked_commit_sweep;
          Alcotest.test_case "acked commits survive torn writes" `Quick
            test_acked_commit_sweep_torn;
          Alcotest.test_case "2PC decision durable before ack" `Quick
            test_twopc_decision_sweep;
        ] );
    ]
