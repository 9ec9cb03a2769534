(* Tests for the lock manager, the RM base (via the KV store) and the
   transaction manager, including crash-recovery and two-phase commit. *)

module Sched = Rrq_sim.Sched
module Disk = Rrq_storage.Disk
module Lock = Rrq_txn.Lock
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter
module Node_log = Rrq_txn.Node_log
module H = Rrq_test_support.Sim_harness

let tx n = Txid.make ~origin:"t" ~inc:1 ~n

(* --- Lock manager --------------------------------------------------- *)

let test_lock_shared_compatible () =
  H.run_fiber (fun () ->
      let lm = Lock.create () in
      Lock.acquire lm (tx 1) ~key:"k" Lock.S;
      Lock.acquire lm (tx 2) ~key:"k" Lock.S;
      Alcotest.(check bool) "both hold" true
        (Lock.holds lm (tx 1) ~key:"k" Lock.S && Lock.holds lm (tx 2) ~key:"k" Lock.S))

let test_lock_exclusive_blocks () =
  let order = ref [] in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"t1" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               order := "t1-got" :: !order;
               Sched.sleep 5.0;
               Lock.release_all lm (tx 1);
               order := "t1-rel" :: !order));
        ignore
          (Sched.spawn s ~name:"t2" (fun () ->
               Sched.sleep 1.0;
               Lock.acquire lm (tx 2) ~key:"k" Lock.X;
               order := "t2-got" :: !order)))
  in
  Alcotest.(check (list string)) "fifo order"
    [ "t1-got"; "t1-rel"; "t2-got" ] (List.rev !order)

let test_lock_reentrant_and_upgrade () =
  H.run_fiber (fun () ->
      let lm = Lock.create () in
      Lock.acquire lm (tx 1) ~key:"k" Lock.S;
      Lock.acquire lm (tx 1) ~key:"k" Lock.S;
      Lock.acquire lm (tx 1) ~key:"k" Lock.X;
      Alcotest.(check bool) "upgraded" true (Lock.holds lm (tx 1) ~key:"k" Lock.X))

let test_lock_fairness_no_starvation () =
  (* An X waiter must not be starved by a stream of later S requests. *)
  let got_x = ref false in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"s1" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.S;
               Sched.sleep 2.0;
               Lock.release_all lm (tx 1)));
        ignore
          (Sched.spawn s ~name:"xw" (fun () ->
               Sched.sleep 1.0;
               Lock.acquire lm (tx 2) ~key:"k" Lock.X;
               got_x := true;
               Lock.release_all lm (tx 2)));
        ignore
          (Sched.spawn s ~name:"s2" (fun () ->
               Sched.sleep 1.5;
               (* queued behind the X waiter despite being S-compatible with
                  the current holder *)
               Lock.acquire lm (tx 3) ~key:"k" Lock.S;
               Alcotest.(check bool) "X granted before later S" true !got_x;
               Lock.release_all lm (tx 3))))
  in
  Alcotest.(check bool) "x eventually granted" true !got_x

let test_lock_deadlock_detected () =
  let deadlocked = ref 0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        let worker me mine theirs =
          ignore
            (Sched.spawn s ~name:(Txid.to_string me) (fun () ->
                 Lock.acquire lm me ~key:mine Lock.X;
                 Sched.sleep 1.0;
                 (try Lock.acquire lm me ~key:theirs Lock.X
                  with Lock.Deadlock _ ->
                    incr deadlocked;
                    Lock.release_all lm me);
                 Lock.release_all lm me))
        in
        worker (tx 1) "a" "b";
        worker (tx 2) "b" "a")
  in
  Alcotest.(check int) "exactly one victim" 1 !deadlocked

let test_lock_upgrade_deadlock_detected () =
  (* Two S holders both upgrading to X is a deadlock. *)
  let deadlocked = ref 0 and succeeded = ref 0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        let worker me =
          ignore
            (Sched.spawn s ~name:(Txid.to_string me) (fun () ->
                 Lock.acquire lm me ~key:"k" Lock.S;
                 Sched.sleep 1.0;
                 (try
                    Lock.acquire lm me ~key:"k" Lock.X;
                    incr succeeded
                  with Lock.Deadlock _ -> incr deadlocked);
                 Lock.release_all lm me))
        in
        worker (tx 1);
        worker (tx 2))
  in
  Alcotest.(check int) "one victim" 1 !deadlocked;
  Alcotest.(check int) "one winner" 1 !succeeded

let test_lock_cancel_waits () =
  let cancelled = ref false in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"holder" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               Sched.sleep 10.0;
               Lock.release_all lm (tx 1)));
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               Sched.sleep 1.0;
               try Lock.acquire lm (tx 2) ~key:"k" Lock.X
               with Lock.Cancelled -> cancelled := true));
        ignore
          (Sched.spawn s ~name:"canceller" (fun () ->
               Sched.sleep 2.0;
               Lock.cancel_waits lm (tx 2))))
  in
  Alcotest.(check bool) "woken with Cancelled" true !cancelled

let test_lock_timeout () =
  let timed_out = ref false in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"holder" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               Sched.sleep 10.0;
               Lock.release_all lm (tx 1)));
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               Sched.sleep 1.0;
               try Lock.acquire ~timeout:2.0 lm (tx 2) ~key:"k" Lock.X
               with Lock.Deadlock _ -> timed_out := true)))
  in
  Alcotest.(check bool) "timed out" true !timed_out

let test_lock_transfer () =
  (* Lock inheritance across chained transactions (paper 6). *)
  let t3_blocked_until = ref 0.0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"chain" (fun () ->
               Lock.acquire lm (tx 1) ~key:"acct" Lock.X;
               Sched.sleep 1.0;
               (* commit tx1, inherit its lock into tx2 *)
               Lock.transfer lm ~from:(tx 1) ~to_:(tx 2);
               Sched.sleep 1.0;
               Lock.release_all lm (tx 2)));
        ignore
          (Sched.spawn s ~name:"other" (fun () ->
               Sched.sleep 0.5;
               Lock.acquire lm (tx 3) ~key:"acct" Lock.X;
               t3_blocked_until := Sched.clock ();
               Lock.release_all lm (tx 3))))
  in
  Alcotest.(check (float 1e-9)) "blocked across the transfer" 2.0 !t3_blocked_until

let test_lock_release_unblocks_shared_group () =
  let got = ref 0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"x" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               Sched.sleep 1.0;
               Lock.release_all lm (tx 1)));
        for i = 2 to 4 do
          ignore
            (Sched.spawn s ~name:(Printf.sprintf "s%d" i) (fun () ->
                 Sched.sleep 0.5;
                 Lock.acquire lm (tx i) ~key:"k" Lock.S;
                 incr got))
        done)
  in
  Alcotest.(check int) "all shared granted together" 3 !got

(* The table keeps an entry only while its key has a holder or a waiter:
   a thousand committed transactions on distinct keys (a server's
   [exec:<rid>] counters) leave it empty, and so do a granted waiter and a
   timed-out one. *)
let test_lock_table_forgets_released_keys () =
  let lm = Lock.create () in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~name:"txns" (fun () ->
               for n = 1 to 1000 do
                 Lock.acquire lm (tx n) ~key:(Printf.sprintf "exec:%d" n) Lock.X;
                 Lock.acquire lm (tx n) ~key:"total" Lock.S;
                 Lock.acquire lm (tx n) ~key:"total" Lock.X;
                 Lock.release_all lm (tx n)
               done;
               Lock.acquire lm (tx 1001) ~key:"hot" Lock.X;
               Lock.acquire lm (tx 1001) ~key:"hot2" Lock.X;
               Sched.sleep 1.0;
               Lock.release_all lm (tx 1001)));
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               Sched.sleep 0.5;
               Lock.acquire lm (tx 1002) ~key:"hot" Lock.X;
               Lock.release_all lm (tx 1002)));
        ignore
          (Sched.spawn s ~name:"timeout" (fun () ->
               Sched.sleep 0.5;
               (try Lock.acquire ~timeout:0.1 lm (tx 1003) ~key:"hot2" Lock.X
                with Lock.Deadlock _ -> ());
               Lock.release_all lm (tx 1003))))
  in
  Alcotest.(check int) "no entries left" 0 (Lock.entries lm)

(* --- KVDB (RM base) -------------------------------------------------- *)

let fresh_kv ?(name = "kv") disk () = Kvdb.open_kv disk ~name

let test_kv_commit_durable () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      Kvdb.put kv id "b" "2";
      Kvdb.commit kv id;
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (option string)) "a" (Some "1") (Kvdb.committed_value kv2 "a");
      Alcotest.(check (option string)) "b" (Some "2") (Kvdb.committed_value kv2 "b"))

let test_kv_abort_discards () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      (Kvdb.participant kv).Tm.p_abort id;
      Alcotest.(check (option string)) "nothing" None (Kvdb.committed_value kv "a");
      (* the lock was released: a new transaction can take the key at once *)
      let id2 = tx 2 in
      Kvdb.put kv id2 "a" "2";
      Kvdb.commit kv id2;
      Alcotest.(check (option string)) "second txn wins" (Some "2")
        (Kvdb.committed_value kv "a"))

let test_kv_read_own_writes () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      Alcotest.(check (option string)) "own write" (Some "1") (Kvdb.get kv id "a");
      Kvdb.delete kv id "a";
      Alcotest.(check (option string)) "own delete" None (Kvdb.get kv id "a"))

let test_kv_add_helper () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Alcotest.(check int) "0+5" 5 (Kvdb.add kv id "c" 5);
      Alcotest.(check int) "5+3" 8 (Kvdb.add kv id "c" 3);
      Kvdb.commit kv id;
      Alcotest.(check (option string)) "committed" (Some "8")
        (Kvdb.committed_value kv "c"))

let test_kv_crash_loses_uncommitted () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      Kvdb.put kv (tx 1) "a" "1";
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (option string)) "lost" None (Kvdb.committed_value kv2 "a"))

let test_kv_prepared_survives_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      let p = Kvdb.participant kv in
      Alcotest.(check bool) "prepared" true (p.Tm.p_prepare id ~coordinator:"c" ());
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      (* in doubt: invisible but recorded *)
      Alcotest.(check (option string)) "invisible" None (Kvdb.committed_value kv2 "a");
      let p2 = Kvdb.participant kv2 in
      Alcotest.(check bool) "commit delivers" true (p2.Tm.p_commit id);
      Alcotest.(check (option string)) "applied" (Some "1")
        (Kvdb.committed_value kv2 "a");
      (* and the forced commit record survives another crash *)
      Disk.crash disk;
      let kv3 = fresh_kv disk () in
      Alcotest.(check (option string)) "still applied" (Some "1")
        (Kvdb.committed_value kv3 "a"))

let test_kv_indoubt_blocks_readers () =
  let read_done_at = ref 0.0 in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n1" in
        let kv = fresh_kv disk () in
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               let id = tx 1 in
               Kvdb.put kv id "a" "1";
               ignore ((Kvdb.participant kv).Tm.p_prepare id ~coordinator:"c" ());
               Disk.crash disk;
               let kv2 = fresh_kv disk () in
               ignore
                 (Sched.fork ~name:"reader" (fun () ->
                      (* blocked by the in-doubt X lock *)
                      ignore (Kvdb.get kv2 (tx 2) "a");
                      read_done_at := Sched.clock ();
                      Kvdb.release_locks kv2 (tx 2)));
               Sched.sleep 5.0;
               ignore ((Kvdb.participant kv2).Tm.p_commit id))))
  in
  Alcotest.(check bool) "reader waited for resolution" true (!read_done_at >= 5.0)

let test_kv_abort_prepared () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      ignore ((Kvdb.participant kv).Tm.p_prepare id ~coordinator:"c" ());
      (Kvdb.participant kv).Tm.p_abort id;
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (option string)) "aborted stays gone" None
        (Kvdb.committed_value kv2 "a"))

let test_kv_checkpoint_recovery_equivalence () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      for i = 1 to 20 do
        let id = tx i in
        Kvdb.put kv id (Printf.sprintf "k%d" (i mod 5)) (string_of_int i);
        Kvdb.commit kv id
      done;
      Kvdb.checkpoint kv;
      for i = 21 to 30 do
        let id = tx i in
        Kvdb.put kv id (Printf.sprintf "k%d" (i mod 5)) (string_of_int i);
        Kvdb.commit kv id
      done;
      let before = Kvdb.committed_bindings kv in
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (list (pair string string))) "same state" before
        (Kvdb.committed_bindings kv2))

(* --- TM / commit ------------------------------------------------------ *)

(* A TM and two KV stores on one disk, each with a log of its own: a
   two-phase commit that puts x=1 at kva and y=2 at kvb, ready to
   commit. *)
let two_rm_txn disk =
  let tm = Tm.open_tm disk ~name:"tm1" in
  let kva = Kvdb.open_kv disk ~name:"kva" in
  let kvb = Kvdb.open_kv disk ~name:"kvb" in
  let txn = Tm.begin_txn tm in
  let id = Tm.txn_id txn in
  Kvdb.put kva id "x" "1";
  Kvdb.put kvb id "y" "2";
  Tm.join txn (Kvdb.participant kva);
  Tm.join txn (Kvdb.participant kvb);
  (tm, kva, kvb, txn)

(* A node: the TM, a QM and a KV store sharing one node log. *)
let open_node disk =
  let log = Node_log.open_log disk ~name:"n1" in
  let tm = Tm.attach log ~name:"n1" in
  let qm = Qm.attach log ~name:"qm" in
  let kv = Kvdb.attach log ~name:"kv" in
  (log, tm, qm, kv)

let commit_ok tm txn =
  match Tm.commit tm txn with
  | Tm.Committed -> ()
  | Tm.Aborted -> Alcotest.fail "should commit"

let test_tm_two_rm_commit () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm, kva, kvb, txn = two_rm_txn disk in
      commit_ok tm txn;
      Alcotest.(check (option string)) "x" (Some "1") (Kvdb.committed_value kva "x");
      Alcotest.(check (option string)) "y" (Some "2") (Kvdb.committed_value kvb "y");
      (* Both participants acknowledged a durable commit record, so the
         decision is retired at once. *)
      Alcotest.(check (list pass)) "retired" [] (Tm.pending_decisions tm))

(* The server transaction of paper §5 on one node: the dequeue, the
   database update and the reply enqueue are one record and one force —
   no prepare, no decision, no End. *)
let test_tm_local_commit_one_sync () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let _, tm, qm, kv = open_node disk in
      Qm.create_queue qm "q";
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"s" ~stable:false in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      ignore (Qm.enqueue qm id h "reply");
      Kvdb.put kv id "k" "v";
      Tm.join txn (Qm.participant qm);
      Tm.join txn (Kvdb.participant kv);
      let before = Disk.sync_count disk in
      commit_ok tm txn;
      Alcotest.(check int) "one record, one force" 1 (Disk.sync_count disk - before);
      Alcotest.(check (list pass)) "no decision logged" [] (Tm.pending_decisions tm);
      Alcotest.(check int) "reply visible" 1 (Qm.depth qm "q");
      Alcotest.(check (option string)) "write visible" (Some "v")
        (Kvdb.committed_value kv "k"))

(* The window between a durable decision and its delivery: the node dies
   after the coordinator's decision record became durable (the settle
   fiber forces it within a fraction of a second) and before either
   participant (each on a log of its own) took it. Both RMs come back in doubt,
   recovery redelivers the decision, and the request (dequeue a job, count
   it, enqueue a reply) takes effect exactly once, also when the
   already-applied decision is redelivered after a second crash. *)
let test_tm_crash_before_commit_records_durable () =
  let disk = Disk.create "n1" in
  let open_world () =
    let tm = Tm.open_tm disk ~name:"tm1" in
    let qm = Qm.open_qm disk ~name:"qm" in
    let kv = Kvdb.open_kv disk ~name:"kv" in
    Tm.set_resolver tm (fun pname ->
        if pname = "qm" then Some (Qm.participant qm)
        else if pname = "kv" then Some (Kvdb.participant kv)
        else None);
    (tm, qm, kv)
  in
  let recover () =
    let tm, qm, kv = open_world () in
    Tm.recover_pending tm;
    Sched.sleep 0.1;
    (tm, qm, kv)
  in
  let state (tm, qm, kv) =
    ( Qm.depth qm "jobs",
      Qm.depth qm "replies",
      Kvdb.committed_value kv "n",
      Tm.pending_decisions tm = [] )
  in
  let check what (jobs, replies, n, retired) =
    Alcotest.(check int) (what ^ ": job consumed") 0 jobs;
    Alcotest.(check int) (what ^ ": one reply") 1 replies;
    Alcotest.(check (option string)) (what ^ ": counted once") (Some "1") n;
    Alcotest.(check bool) (what ^ ": decision retired") true retired
  in
  let undelivered (p : Tm.participant) = { p with Tm.p_commit = (fun _ -> false) } in
  H.run_fiber (fun () ->
      let tm, qm, kv = open_world () in
      List.iter (fun q -> Qm.create_queue qm q) [ "jobs"; "replies" ];
      let h, _ = Qm.register qm ~queue:"jobs" ~registrant:"s" ~stable:false in
      let hr, _ = Qm.register qm ~queue:"replies" ~registrant:"s" ~stable:false in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "job"));
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      ignore (Kvdb.add kv id "n" 1);
      ignore (Qm.enqueue qm id hr "reply");
      Tm.join txn (undelivered (Qm.participant qm));
      Tm.join txn (undelivered (Kvdb.participant kv));
      commit_ok tm txn;
      Sched.sleep 0.8;
      Disk.crash disk;
      let tm2, qm2, kv2 = open_world () in
      Alcotest.(check int) "qm in doubt" 1 (List.length (Qm.in_doubt qm2));
      Alcotest.(check int) "kv in doubt" 1 (List.length (Kvdb.in_doubt kv2));
      Alcotest.(check bool) "decision recovered" true (Tm.decision tm2 id = `Committed);
      check "after recovery" (state (recover ()));
      Disk.crash disk;
      check "after a second recovery" (state (recover ())))

(* The retirement invariant: an End record never precedes a participant's
   acknowledgement, which it gives only once its commit record is durable.
   kvb misses the delivery; a second transaction then forces the TM log
   (its decision record). Were the first decision already retired, that
   force would make its End durable, and recovery would presume the
   still-in-doubt first transaction aborted. *)
let test_tm_end_waits_for_durable_commit_records () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let kvb = Kvdb.open_kv disk ~name:"kvb" in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      Kvdb.put kva id "x" "1";
      Kvdb.put kvb id "y" "2";
      Tm.join txn (Kvdb.participant kva);
      Tm.join txn { (Kvdb.participant kvb) with Tm.p_commit = (fun _ -> false) };
      commit_ok tm txn;
      let kvc = Kvdb.open_kv disk ~name:"kvc" in
      let kvd = Kvdb.open_kv disk ~name:"kvd" in
      let txn2 = Tm.begin_txn tm in
      Kvdb.put kvc (Tm.txn_id txn2) "z" "3";
      Kvdb.put kvd (Tm.txn_id txn2) "w" "4";
      Tm.join txn2 (Kvdb.participant kvc);
      Tm.join txn2 (Kvdb.participant kvd);
      commit_ok tm txn2;
      Disk.crash disk;
      let tm' = Tm.open_tm disk ~name:"tm1" in
      let kvb' = Kvdb.open_kv disk ~name:"kvb" in
      Alcotest.(check int) "kvb in doubt" 1 (List.length (Kvdb.in_doubt kvb'));
      Alcotest.(check bool) "first decision still logged" true
        (Tm.decision tm' id = `Committed))

let test_tm_vote_no_aborts_all () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      Kvdb.put kva id "x" "1";
      Tm.join txn (Kvdb.participant kva);
      Tm.join txn
        {
          Tm.part_name = "naysayer";
          p_local = None;
          p_prepare = (fun _ ~coordinator:_ () -> false);
          p_commit = (fun _ -> true);
          p_abort = (fun _ -> ());
          p_has_work = (fun _ -> true);
          p_status = (fun _ -> Some `Unknown);
          p_forget = ignore;
        };
      (match Tm.commit tm txn with
      | Tm.Aborted -> ()
      | Tm.Committed -> Alcotest.fail "must abort");
      Alcotest.(check (option string)) "x discarded" None
        (Kvdb.committed_value kva "x"))

let test_tm_coordinator_crash_before_decision_presumes_abort () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      Kvdb.put kva id "x" "1";
      (* Participant prepares, then the coordinator "crashes" before logging
         a decision. *)
      ignore ((Kvdb.participant kva).Tm.p_prepare id ~coordinator:"tm1" ());
      Disk.crash disk;
      let tm2 = Tm.open_tm disk ~name:"tm1" in
      Alcotest.(check bool) "presumed abort" true (Tm.decision tm2 id = `Aborted))

let test_tm_decision_survives_crash_and_redelivers () =
  let committed_value = ref None in
  let pending_after_commit = ref false in
  let retired = ref false in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n1" in
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               let tm = Tm.open_tm disk ~name:"tm1" in
               let kva = Kvdb.open_kv disk ~name:"kva" in
               let kvb = Kvdb.open_kv disk ~name:"kvb" in
               let txn = Tm.begin_txn tm in
               let id = Tm.txn_id txn in
               Kvdb.put kva id "x" "1";
               Kvdb.put kvb id "y" "2";
               Tm.join txn (Kvdb.participant kva);
               (* kvb's commit delivery fails the first time around *)
               let pb = Kvdb.participant kvb in
               let missed = ref false in
               Tm.join txn
                 {
                   pb with
                   Tm.p_commit =
                     (fun tid ->
                       if !missed then pb.Tm.p_commit tid
                       else begin
                         missed := true;
                         false
                       end);
                 };
               commit_ok tm txn;
               pending_after_commit := Tm.pending_decisions tm <> [];
               (* background redelivery retries after 1s *)
               Sched.sleep 3.0;
               committed_value := Kvdb.committed_value kvb "y";
               retired := Tm.pending_decisions tm = [])))
  in
  Alcotest.(check bool) "decision pending" true !pending_after_commit;
  Alcotest.(check (option string)) "kvb applied via redelivery" (Some "2")
    !committed_value;
  Alcotest.(check bool) "retired once acknowledged" true !retired

let test_tm_recover_pending_after_crash () =
  let final = ref None in
  let retired = ref false in
  let disk = Disk.create "n1" in
  let _ =
    H.run (fun s ->
        (* Incarnation 1: commit a 2PC transaction whose second participant
           never acknowledges, then crash the whole node (fibers + volatile
           disk state). *)
        ignore
          (Sched.spawn s ~group:"inc1" ~name:"flow1" (fun () ->
               let tm = Tm.open_tm disk ~name:"tm1" in
               let kva = Kvdb.open_kv disk ~name:"kva" in
               let kvb = Kvdb.open_kv disk ~name:"kvb" in
               let txn = Tm.begin_txn tm in
               let id = Tm.txn_id txn in
               Kvdb.put kva id "x" "1";
               Kvdb.put kvb id "y" "2";
               Tm.join txn (Kvdb.participant kva);
               let pb = Kvdb.participant kvb in
               Tm.join txn { pb with Tm.p_commit = (fun _ -> false) };
               match Tm.commit tm txn with
               | Tm.Committed -> ()
               | Tm.Aborted -> Alcotest.fail "should commit"));
        Sched.at s 10.0 (fun () ->
            Sched.kill_group s "inc1";
            Disk.crash disk;
            (* Incarnation 2: recovery finds the decision and redelivers. *)
            ignore
              (Sched.spawn s ~group:"inc2" ~name:"flow2" (fun () ->
                   let tm2 = Tm.open_tm disk ~name:"tm1" in
                   let kva2 = Kvdb.open_kv disk ~name:"kva" in
                   let kvb2 = Kvdb.open_kv disk ~name:"kvb" in
                   Tm.set_resolver tm2 (fun pname ->
                       if pname = "kva" then Some (Kvdb.participant kva2)
                       else if pname = "kvb" then Some (Kvdb.participant kvb2)
                       else None);
                   Alcotest.(check bool) "decision recovered" true
                     (Tm.pending_decisions tm2 <> []);
                   Tm.recover_pending tm2;
                   Sched.sleep 5.0;
                   retired := Tm.pending_decisions tm2 = [];
                   final := Kvdb.committed_value kvb2 "y"))))
  in
  Alcotest.(check bool) "retired after recovery" true !retired;
  Alcotest.(check (option string)) "kvb eventually applied" (Some "2") !final

let test_tm_empty_and_single () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let _, tm, _, kv = open_node disk in
      let txn = Tm.begin_txn tm in
      Alcotest.(check bool) "empty commits" true (Tm.commit tm txn = Tm.Committed);
      let txn2 = Tm.begin_txn tm in
      Kvdb.put kv (Tm.txn_id txn2) "x" "1";
      Tm.join txn2 (Kvdb.participant kv);
      Alcotest.(check bool) "single commits with one record" true
        (Tm.commit tm txn2 = Tm.Committed);
      Alcotest.(check (list pass)) "no 2pc pending" [] (Tm.pending_decisions tm))

(* The node log's checkpoint floor: a log whose snapshot is smaller is cut
   once it holds this many bytes. *)
let checkpoint_floor = 256 * 1024

(* Every buffer has a bound: the node log, which holds the TM's decisions
   and End records, cuts itself however many two-phase commits run, with
   no janitor. Its snapshot stays small, so the live log never reaches the
   checkpoint floor, and the commits cross that floor several times. *)
let test_node_log_bounded_by_checkpoints () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let log, tm, _, kv = open_node disk in
      let remote = Kvdb.open_kv disk ~name:"remote" in
      let n = 8000 in
      let live = Array.make n 0 in
      for i = 0 to n - 1 do
        let txn = Tm.begin_txn tm in
        let id = Tm.txn_id txn in
        Kvdb.put kv id "local" (string_of_int i);
        Kvdb.put remote id "remote" (string_of_int i);
        Tm.join txn (Kvdb.participant kv);
        Tm.join txn (Kvdb.participant remote);
        commit_ok tm txn;
        live.(i) <- Node_log.live_log_bytes log
      done;
      let first = Array.sub live 0 (n / 2) and last = Array.sub live (n / 2) (n / 2) in
      let peak a = Array.fold_left max 0 a in
      let cuts = ref 0 in
      Array.iteri (fun i b -> if i > 0 && b < live.(i - 1) then incr cuts) live;
      Alcotest.(check bool)
        (Printf.sprintf "bounded: peak %d over the last half, %d over the first, %d cuts"
           (peak last) (peak first) !cuts)
        true
        (peak last <= peak first && peak last < checkpoint_floor && !cuts >= 4);
      Alcotest.(check (list pass)) "every decision retired" [] (Tm.pending_decisions tm))

(* The checkpoint rule, with no janitor: a node log whose KV state grows
   by one key per commit runs 20,000 commits. After every commit the live
   log is below [max (last snapshot) floor], so at any append it held at
   most that plus one frame; and the checkpoint bytes written never exceed
   the log bytes appended plus one snapshot. *)
let test_node_log_checkpoint_rule () =
  Rrq_obs.reset ();
  Fun.protect ~finally:Rrq_obs.disable @@ fun () ->
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let log, _, _, kv = open_node disk in
      let counter name = Rrq_obs.Metrics.counter (name ^ ":n1.log") in
      let appended () =
        counter "wal.bytes" + (Rrq_wal.Wal.frame_header * counter "wal.appends")
      in
      let cuts = ref 0 and written = ref 0 and last_snapshot = ref 0 in
      for i = 1 to 20_000 do
        let id = tx i in
        Kvdb.put kv id (Printf.sprintf "key%05d" i) "v";
        Kvdb.commit kv id;
        if counter "wal.checkpoints" > !cuts then begin
          cuts := counter "wal.checkpoints";
          last_snapshot := counter "wal.ckpt_bytes" - !written;
          written := counter "wal.ckpt_bytes"
        end;
        let bound = max !last_snapshot checkpoint_floor in
        let live = Node_log.live_log_bytes log in
        if live >= bound then
          Alcotest.failf "commit %d: live log %d, bound %d" i live bound;
        if !written > appended () + !last_snapshot then
          Alcotest.failf "commit %d: %d checkpoint bytes, %d log bytes appended" i
            !written (appended ())
      done;
      Alcotest.(check bool)
        (Printf.sprintf "the snapshot outgrew the floor (%d bytes, %d cuts)"
           !last_snapshot !cuts)
        true (!last_snapshot > checkpoint_floor);
      Alcotest.(check int) "every key kept" 20_000
        (List.length (Kvdb.committed_bindings kv)))

(* A node attaches its TM first, and the TM's first act is a commit (its
   new incarnation). If that commit crossed the checkpoint floor and cut
   the log, the snapshot would hold the TM alone, and the KV store's
   recovered records would be gone from the disk: a second crash would
   lose them. So the rule waits until every RM recovery found sections
   of has attached. The log is filled to 8 bytes below the floor, crashed
   and reopened twice. *)
let test_checkpoint_waits_for_recovered_rms () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let log, _, _, kv = open_node disk in
      let put n v =
        let id = tx n in
        Kvdb.put kv id (Printf.sprintf "k%03d" n) v;
        Kvdb.commit kv id
      in
      let n = ref 0 in
      let gap () = checkpoint_floor - Node_log.live_log_bytes log in
      while gap () > 8192 do
        incr n;
        put !n (String.make 4096 'v')
      done;
      (* The frame of a put holds its value and a fixed overhead. *)
      let before = gap () in
      incr n;
      put !n "";
      let overhead = before - gap () in
      incr n;
      put !n (String.make (gap () - overhead - 8) 'w');
      Alcotest.(check int) "8 bytes below the floor" 8 (gap ());
      let committed = List.sort compare (Kvdb.committed_bindings kv) in
      Disk.crash disk;
      ignore (open_node disk);
      Disk.crash disk;
      let _, _, _, kv' = open_node disk in
      Alcotest.(check int) "every key survives two crashes" (List.length committed)
        (List.length (List.sort compare (Kvdb.committed_bindings kv'))))

(* A checkpoint hands its encoder's buffer to the disk as the checkpoint
   file, and the encoder goes on in the buffer of the checkpoint it
   replaced. Records committed after the cut go through that encoder, and
   must not reach the file: its digest stays what it was right after the
   cut, and recovery gives back the committed state. Once the two buffers
   have grown, a checkpoint allocates far less than its snapshot. *)
let test_checkpoint_buffer_handoff () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let log, _, _, kv = open_node disk in
      let put i key =
        let id = tx i in
        Kvdb.put kv id key (String.make 16384 (Char.chr (97 + (i mod 26))));
        Kvdb.commit kv id
      in
      for i = 1 to 64 do
        put i (Printf.sprintf "k%02d" i)
      done;
      Node_log.checkpoint log;
      Node_log.checkpoint log;
      let before = Gc.allocated_bytes () in
      Node_log.checkpoint log;
      let allocated = Gc.allocated_bytes () -. before in
      let file () = Option.get (Disk.read_file disk "n1.log.ckpt") in
      let size = String.length (file ()) in
      Alcotest.(check bool)
        (Printf.sprintf "a checkpoint of %d bytes allocated %.0f" size allocated)
        true
        (allocated < float_of_int size /. 10.);
      let cut = Digest.string (file ()) in
      (* 128 KiB of records: fewer than the snapshot holds, so no cut. *)
      for i = 65 to 72 do
        put i (Printf.sprintf "k%02d" (i - 64))
      done;
      Alcotest.(check string) "the file is what the cut wrote" (Digest.to_hex cut)
        (Digest.to_hex (Digest.string (file ())));
      let committed = List.sort compare (Kvdb.committed_bindings kv) in
      Disk.crash disk;
      let _, _, _, kv' = open_node disk in
      Alcotest.(check bool) "recovery gives back the committed state" true
        (List.sort compare (Kvdb.committed_bindings kv') = committed))

(* The same steps with values below [Codec.splice_min]: nothing in the
   snapshot is spliced, so every checkpoint takes the buffer handoff, and
   the records committed after the cut are written through the buffer the
   disk handed back. *)
let test_checkpoint_buffer_handoff_unspliced () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let log, _, _, kv = open_node disk in
      let value_bytes = Rrq_util.Codec.splice_min - 1024 in
      let put i key =
        let id = tx i in
        Kvdb.put kv id key (String.make value_bytes (Char.chr (97 + (i mod 26))));
        Kvdb.commit kv id
      in
      for i = 1 to 64 do
        put i (Printf.sprintf "k%02d" i)
      done;
      Node_log.checkpoint log;
      Node_log.checkpoint log;
      let before = Gc.allocated_bytes () in
      Node_log.checkpoint log;
      let allocated = Gc.allocated_bytes () -. before in
      let file () = Option.get (Disk.read_file disk "n1.log.ckpt") in
      let size = String.length (file ()) in
      Alcotest.(check bool)
        (Printf.sprintf "a checkpoint of %d bytes allocated %.0f" size allocated)
        true
        (allocated < float_of_int size /. 10.);
      let cut = Digest.string (file ()) in
      (* 24 KiB of records: below the 256 KiB floor, so no cut. *)
      for i = 65 to 72 do
        put i (Printf.sprintf "k%02d" (i - 64))
      done;
      Alcotest.(check string) "the file is what the cut wrote" (Digest.to_hex cut)
        (Digest.to_hex (Digest.string (file ())));
      let committed = List.sort compare (Kvdb.committed_bindings kv) in
      Disk.crash disk;
      let _, _, _, kv' = open_node disk in
      Alcotest.(check bool) "recovery gives back the committed state" true
        (List.sort compare (Kvdb.committed_bindings kv') = committed))

(* A checkpoint cut while a parallel commit is parked in the force of its
   staged record keeps the decision: the snapshot holds the local in-doubt
   section the record carries, so it must hold the TM's staged entry (or,
   cut after the votes, the decision) too, or recovery could never commit
   the local update the prepared remote participant's commit goes with. *)
let test_checkpoint_during_decision_force () =
  let disk = Disk.create ~sync_latency:0.001 "n1" in
  let outcome = ref None in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               let log, tm, _, kv = open_node disk in
               let remote = Kvdb.open_kv disk ~name:"remote" in
               let txn = Tm.begin_txn tm in
               let id = Tm.txn_id txn in
               Kvdb.put kv id "local" "1";
               Kvdb.put remote id "remote" "1";
               Tm.join txn (Kvdb.participant kv);
               let pr = Kvdb.participant remote in
               Tm.join txn
                 {
                   pr with
                   Tm.p_prepare =
                     (fun id ~coordinator ->
                       let yes = pr.Tm.p_prepare id ~coordinator in
                       (* Runs once the coordinator parks in its force. *)
                       ignore
                         (Sched.fork ~name:"ckpt" (fun () -> Node_log.checkpoint log));
                       yes);
                   p_commit = (fun _ -> false);
                 };
               commit_ok tm txn;
               Disk.crash disk;
               let _, tm', qm', kv' = open_node disk in
               let remote' = Kvdb.open_kv disk ~name:"remote" in
               (* Recovery asks the remote participant about a staged
                  record it found without a decision. This one never takes
                  the commit, so the decision stays pending. *)
               Tm.set_resolver tm'
                 ~locals:[ Qm.participant qm'; Kvdb.participant kv' ]
                 (fun pname ->
                   if pname = "remote" then
                     Some { (Kvdb.participant remote') with Tm.p_commit = (fun _ -> false) }
                   else None);
               Tm.recover_pending tm';
               Sched.sleep 0.1;
               outcome := Some (Tm.decision tm' id, Kvdb.committed_value kv' "local"))))
  in
  match !outcome with
  | None -> Alcotest.fail "flow did not finish"
  | Some (decision, local) ->
    Alcotest.(check (option string)) "local update recovered" (Some "1") local;
    Alcotest.(check bool) "decision recovered with it" true (decision = `Committed)

(* Txids carry the TM's incarnation. A checkpoint truncates the
   incarnation records, so the count must live in the snapshot: ids minted
   after a checkpoint, a crash and a reboot never repeat earlier ones. *)
let test_txids_unique_across_checkpoint_and_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let ids = ref [] in
      let mint tm =
        for _ = 1 to 3 do
          let txn = Tm.begin_txn tm in
          ids := Tm.txn_id txn :: !ids;
          commit_ok tm txn
        done
      in
      for _ = 1 to 3 do
        let log, tm, _, _ = open_node disk in
        mint tm;
        Node_log.checkpoint log;
        mint tm;
        Disk.crash disk
      done;
      let distinct = List.sort_uniq Txid.compare !ids in
      Alcotest.(check int) "no txid repeats" (List.length !ids) (List.length distinct))

(* The on-disk format, pinned by digest: the segment of a node log that
   holds a parallel commit's staged record (the QM's enqueue with its
   payload, the KV store's write and the TM's staged section in one
   record) and the checkpoint cut after it. Logs written before a change
   to the encoders stay recoverable only while these bytes stay put. *)
let test_on_disk_format_pinned () =
  let seg, ckpt =
    H.run_fiber (fun () ->
        let disk = Disk.create "n1" in
        let log, tm, qm, kv = open_node disk in
        let remote = Kvdb.open_kv disk ~name:"remote" in
        Qm.create_queue qm "q";
        let h, _ = Qm.register qm ~queue:"q" ~registrant:"c" ~stable:true in
        let txn = Tm.begin_txn tm in
        let id = Tm.txn_id txn in
        ignore (Qm.enqueue qm id h ~tag:"t1" ~props:[ ("k", "v") ] "request body");
        Kvdb.put kv id "acct" "10";
        Kvdb.put remote id "other" "20";
        Tm.join txn (Qm.participant qm);
        Tm.join txn (Kvdb.participant kv);
        Tm.join txn (Kvdb.participant remote);
        commit_ok tm txn;
        let seg = Option.get (Disk.read_file disk "n1.log.seg0") in
        Node_log.checkpoint log;
        (seg, Option.get (Disk.read_file disk "n1.log.ckpt")))
  in
  (* Each frame: length, checksum, then a count of (kind, section) pairs. *)
  let rec kinds pos acc =
    if pos >= String.length seg then List.rev acc
    else begin
      let len = Int64.to_int (String.get_int64_le seg pos) in
      let payload = String.sub seg (pos + 16) len in
      let d = Rrq_util.Codec.decoder payload in
      let n = Rrq_util.Codec.get_u8 d in
      let ks =
        List.init n (fun _ ->
            let k = Rrq_util.Codec.get_u8 d in
            ignore (Rrq_util.Codec.get_string d);
            k)
      in
      kinds (pos + 16 + len) (List.sort compare ks :: acc)
    end
  in
  Alcotest.(check bool) "a record with TM, QM and KV sections" true
    (List.mem [ 1; 2; 3 ] (kinds 0 []));
  let hex s = Digest.to_hex (Digest.string s) in
  Alcotest.(check (pair int string)) "segment bytes" (670, "1d40e546b153fd37e08da532335672c9") (String.length seg, hex seg);
  Alcotest.(check (pair int string)) "checkpoint bytes" (320, "b1affcdef149ac3544e48549915e0162") (String.length ckpt, hex ckpt)

(* "on-disk format pinned"'s segment in the earlier format, where a tagged
   enqueue's registration update carries a full copy of the element
   (element-copy byte 1). The decoder still reads byte 1, so such a log
   still recovers. *)
let full_copy_segment_hex =
  "0b0000000000000020b90b4dfc57403501010100000000000000011e00000000000000cb\
     6ea9117bf403fe0102140000000000000001000000000000000000010000000000000000\
     0a34000000000000005e5adb4de8116fd701022a00000000000000010000000000000000\
     000100000000000000000101000000000000007100030000000000000000000000310000\
     00000000003e926805a13208320102270000000000000001000000000000000000010000\
     00000000000007010000000000000063010000000000000071019201000000000000fae3\
     0f0897c75fc603020001000000000000020102000000000000006e310100000000000000\
     010000000000000002000000000000006e31020000000000000000020100000000000000\
     7101000000010000000c000000000000007265717565737420626f647901000000000000\
     0001000000000000006b010000000000000076000000000000000095d626e80b2e113e00\
     000000000000000000090100000000000000630100000000000000710100020000000000\
     0000743101000000010000000101000000010000000c0000000000000072657175657374\
     20626f6479010000000000000001000000000000006b0100000000000000760000000000\
     00000095d626e80b2e113e00000000000000000003450000000000000002010200000000\
     0000006e310100000000000000010000000000000002000000000000006e310100000000\
     000000010400000000000000616363740200000000000000313001310000000000000004\
     02000000000000006e310100000000000000010000000000000001000000000000000600\
     00000000000072656d6f74656d000000000000006e7d0ff9e9abbae303021b0000000000\
     00000302000000000000006e3101000000000000000100000000000000031b0000000000\
     00000302000000000000006e3101000000000000000100000000000000011b0000000000\
     00000202000000000000006e3101000000000000000100000000000000"

let test_full_copy_segment_recovers () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let f = Disk.open_file disk "n1.log.seg0" in
      let hex = full_copy_segment_hex in
      let bytes =
        Bytes.init (String.length hex / 2) (fun i ->
            Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))
      in
      Disk.append f bytes ~spliced:[] ~len:(Bytes.length bytes);
      Disk.sync f;
      let _, _, qm, kv = open_node disk in
      Alcotest.(check (option string)) "the commit recovered" (Some "10")
        (Kvdb.committed_value kv "acct");
      match Qm.lookup_registration qm ~queue:"q" ~registrant:"c" with
      | Some l ->
        Alcotest.(check string) "tag" "t1" l.Qm.tag;
        Alcotest.(check (option string)) "the enqueue's full copy" (Some "request body")
          (Option.map (fun e -> e.Element.payload) l.Qm.element_copy);
        Alcotest.(check (option string)) "the element" (Some "request body")
          (Option.map (fun e -> e.Element.payload) (Qm.read qm l.Qm.op_eid))
      | None -> Alcotest.fail "registration lost")

(* The one commit record of a server transaction (dequeue the request,
   update the database, enqueue the reply) is atomic: a crash that keeps
   any proper prefix of it (a torn write) loses all three effects, and
   only the whole record brings all three. Every prefix length is laid
   down on a fresh disk and recovered. *)
let test_one_record_atomic_under_torn_writes () =
  let setup disk =
    let log, tm, qm, kv = open_node disk in
    if not (Qm.queue_exists qm "req") then begin
      Qm.create_queue qm "req";
      Qm.create_queue qm "reply"
    end;
    (log, tm, qm, kv)
  in
  let effects disk =
    let _, _, qm, kv = setup disk in
    (Qm.depth qm "req" = 0, Qm.depth qm "reply" = 1, Kvdb.committed_value kv "acct" = Some "1")
  in
  let files disk =
    List.filter_map
      (fun f -> Option.map (fun c -> (f, c)) (Disk.read_file disk f))
      (List.sort compare (Disk.list_files disk))
  in
  let before, after =
    H.run_fiber (fun () ->
        let disk = Disk.create "n1" in
        let log, tm, qm, kv = setup disk in
        let h, _ = Qm.register qm ~queue:"req" ~registrant:"c" ~stable:false in
        let hr, _ = Qm.register qm ~queue:"reply" ~registrant:"s" ~stable:false in
        ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "request"));
        Node_log.force log;
        let before = files disk in
        let txn = Tm.begin_txn tm in
        let id = Tm.txn_id txn in
        ignore (Qm.dequeue qm id h Qm.No_wait);
        ignore (Kvdb.add kv id "acct" 1);
        ignore (Qm.enqueue qm id hr "reply");
        Tm.join txn (Qm.participant qm);
        Tm.join txn (Kvdb.participant kv);
        commit_ok tm txn;
        (before, files disk))
  in
  (* The commit appended one frame to the log's active segment (the queue
     page files change too, but recovery never reads them). *)
  let seg, record =
    match
      List.filter_map
        (fun (f, c) ->
          let old = Option.value ~default:"" (List.assoc_opt f before) in
          let k = String.length old in
          let segment = String.starts_with ~prefix:".seg" (Filename.extension f) in
          if segment && String.length c > k && String.sub c 0 k = old then
            Some (f, String.sub c k (String.length c - k))
          else None)
        after
    with
    | [ one ] -> one
    | l -> Alcotest.failf "expected one grown log segment, got %d" (List.length l)
  in
  let n = String.length record in
  Alcotest.(check bool) "a framed record" true (n > 16);
  for keep = 0 to n do
    H.run_fiber (fun () ->
        let disk = Disk.create (Printf.sprintf "torn%d" keep) in
        List.iter
          (fun (f, c) ->
            let c = if f = seg then c ^ String.sub record 0 keep else c in
            let file = Disk.open_file disk f in
            Disk.append file (Bytes.unsafe_of_string c) ~spliced:[]
              ~len:(String.length c);
            Disk.sync file)
          before;
        let consumed, replied, written = effects disk in
        let all = keep = n in
        let ctx what = Printf.sprintf "prefix %d/%d: %s" keep n what in
        Alcotest.(check bool) (ctx "request consumed") all consumed;
        Alcotest.(check bool) (ctx "reply enqueued") all replied;
        Alcotest.(check bool) (ctx "database written") all written)
  done

let test_tm_abort_releases () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let txn = Tm.begin_txn tm in
      Kvdb.put kva (Tm.txn_id txn) "x" "1";
      Tm.join txn (Kvdb.participant kva);
      Tm.abort tm txn;
      Tm.abort tm txn (* idempotent *);
      let txn2 = Tm.begin_txn tm in
      Kvdb.put kva (Tm.txn_id txn2) "x" "2";
      Tm.join txn2 (Kvdb.participant kva);
      ignore (Tm.commit tm txn2);
      Alcotest.(check (option string)) "second txn proceeds" (Some "2")
        (Kvdb.committed_value kva "x"))

let test_tm_hooks () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let log = ref [] in
      let txn = Tm.begin_txn tm in
      Tm.on_commit txn (fun () -> log := "c1" :: !log);
      Tm.on_commit txn (fun () -> log := "c2" :: !log);
      Tm.on_abort txn (fun () -> log := "a" :: !log);
      ignore (Tm.commit tm txn);
      Alcotest.(check (list string)) "commit hooks in order" [ "c1"; "c2" ]
        (List.rev !log))

let test_txid_roundtrip () =
  let id = Txid.make ~origin:"node-7" ~inc:3 ~n:42 in
  let e = Rrq_util.Codec.encoder () in
  Txid.encode e id;
  let d = Rrq_util.Codec.decoder (Rrq_util.Codec.to_string e) in
  Alcotest.(check bool) "roundtrip" true (Txid.equal id (Txid.decode d));
  Alcotest.(check string) "to_string" "node-7.3.42" (Txid.to_string id)

(* --- One participant protocol over both RMs ------------------------------ *)

(* An RM as its coordinator sees it, through its [Tm.participant] record,
   with what a test needs to give it work and watch that work: [take]
   buffers a transaction's update, [applied] says the update is committed
   state, and [free] that nothing the transaction took is held any more. *)
type rm_view = {
  p : Tm.participant;
  take : Txid.t -> unit;
  applied : Txid.t -> bool;
  free : Txid.t -> bool;
  in_doubt : unit -> Txid.t list;
  remembered : unit -> Txid.t list;
  checkpoint : unit -> unit;
}

(* Both open their RM on the node log "n" of [disk], recovering it. *)

(* The KV store's update is a write of a key of the transaction's own. It
   is free once another transaction can write the key: a held lock blocks
   that write and the test's fiber never completes. *)
let kv_view disk =
  let kv = Kvdb.attach (Node_log.open_log disk ~name:"n") ~name:"kv" in
  let p = Kvdb.participant kv in
  let key id = "k:" ^ Txid.to_string id in
  {
    p;
    take = (fun id -> Kvdb.put kv id (key id) "v");
    applied = (fun id -> Kvdb.committed_value kv (key id) = Some "v");
    free =
      (fun id ->
        let probe = Txid.make ~origin:"probe" ~inc:1 ~n:0 in
        Kvdb.put kv probe (key id) "w";
        p.Tm.p_abort probe;
        true);
    in_doubt = (fun () -> List.map fst (Kvdb.in_doubt kv));
    remembered = (fun () -> Kvdb.remembered kv);
    checkpoint = (fun () -> Kvdb.checkpoint kv);
  }

(* The QM's update is the dequeue of an element of the transaction's own.
   It is free once the element is back to [Ready]. *)
let qm_view disk =
  let qm = Qm.attach (Node_log.open_log disk ~name:"n") ~name:"qm" in
  Qm.create_queue qm "q";
  let h, _ = Qm.register qm ~queue:"q" ~registrant:"t" ~stable:false in
  let tag id = Filter.Prop_eq ("txn", Txid.to_string id) in
  let element id =
    List.find_opt (fun el -> Filter.matches (tag id) el) (Qm.elements qm "q")
  in
  {
    p = Qm.participant qm;
    take =
      (fun id ->
        ignore
          (Qm.auto_commit qm (fun a ->
               Qm.enqueue qm a h ~props:[ ("txn", Txid.to_string id) ] "x"));
        if Qm.dequeue qm id h ~filter:(tag id) Qm.No_wait = None then
          Alcotest.fail "nothing to dequeue");
    applied = (fun id -> element id = None);
    free =
      (fun id ->
        match element id with
        | Some el -> el.Element.status = Element.Ready
        | None -> false);
    in_doubt = (fun () -> List.map fst (Qm.in_doubt qm));
    remembered = (fun () -> Qm.remembered qm);
    checkpoint = (fun () -> Qm.checkpoint qm);
  }

let rm_views = [ ("kvdb", kv_view); ("qm", qm_view) ]
let sorted ids = List.sort Txid.compare ids
let txids =
  Alcotest.testable (fun f id -> Format.pp_print_string f (Txid.to_string id)) Txid.equal

(* A recovering coordinator's status question about work this RM never
   prepared: [`Unknown], and the transaction is aborted here, so what it
   took is free and a late prepare votes no. *)
let test_rm_status_unknown_aborts view () =
  H.run_fiber (fun () ->
      let rm = view (Disk.create "n1") in
      let id = tx 1 in
      rm.take id;
      Alcotest.(check bool) "has work" true (rm.p.Tm.p_has_work id);
      Alcotest.(check bool) "unknown" true (rm.p.Tm.p_status id = Some `Unknown);
      Alcotest.(check bool) "workspace gone" false (rm.p.Tm.p_has_work id);
      Alcotest.(check bool) "free again" true (rm.free id);
      Alcotest.(check bool) "a late prepare votes no" false
        (rm.p.Tm.p_prepare id ~coordinator:"c" ());
      Alcotest.(check bool) "not applied" false (rm.applied id))

(* A remote coordinator's commit: idempotent, and remembered until the
   coordinator says its decision record is durable. *)
let test_rm_commit_remembered_until_forget view () =
  H.run_fiber (fun () ->
      let rm = view (Disk.create "n1") in
      let id = tx 1 in
      rm.take id;
      Alcotest.(check bool) "votes yes" true (rm.p.Tm.p_prepare id ~coordinator:"c" ());
      Alcotest.(check bool) "in doubt" true (rm.p.Tm.p_status id = Some `Prepared);
      Alcotest.(check bool) "commit" true (rm.p.Tm.p_commit id);
      Alcotest.(check bool) "commit again" true (rm.p.Tm.p_commit id);
      Alcotest.(check bool) "applied" true (rm.applied id);
      Alcotest.(check (list txids)) "remembered" [ id ] (rm.remembered ());
      Alcotest.(check bool) "status committed" true
        (rm.p.Tm.p_status id = Some `Committed);
      rm.p.Tm.p_forget [ id ];
      Alcotest.(check (list txids)) "forgotten" [] (rm.remembered ());
      Alcotest.(check bool) "a late commit is harmless" true (rm.p.Tm.p_commit id);
      Alcotest.(check bool) "still applied" true (rm.applied id))

(* The in-doubt and remembered sets survive a checkpoint and a crash. *)
let test_rm_checkpoint_keeps_doubt_and_memory view () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let rm = view disk in
      let doubtful = tx 1 and kept = tx 2 in
      List.iter
        (fun id ->
          rm.take id;
          Alcotest.(check bool) "votes yes" true
            (rm.p.Tm.p_prepare id ~coordinator:"c" ()))
        [ doubtful; kept ];
      ignore (rm.p.Tm.p_commit kept);
      rm.checkpoint ();
      Disk.crash disk;
      let rm = view disk in
      Alcotest.(check (list txids)) "in doubt" [ doubtful ] (sorted (rm.in_doubt ()));
      Alcotest.(check (list txids)) "remembered" [ kept ] (sorted (rm.remembered ()));
      Alcotest.(check bool) "committed work applied" true (rm.applied kept);
      Alcotest.(check bool) "in-doubt work not applied" false (rm.applied doubtful);
      Alcotest.(check bool) "commit resolves the doubt" true (rm.p.Tm.p_commit doubtful);
      Alcotest.(check bool) "applied" true (rm.applied doubtful))

let participant_suite =
  List.concat_map
    (fun (rm, view) ->
      [
        Alcotest.test_case (rm ^ ": unknown status aborts") `Quick
          (test_rm_status_unknown_aborts view);
        Alcotest.test_case (rm ^ ": commit remembered until forget") `Quick
          (test_rm_commit_remembered_until_forget view);
        Alcotest.test_case (rm ^ ": checkpoint keeps doubt and memory") `Quick
          (test_rm_checkpoint_keeps_doubt_and_memory view);
      ])
    rm_views

let lock_suite =
  [
    Alcotest.test_case "S/S compatible" `Quick test_lock_shared_compatible;
    Alcotest.test_case "X blocks, FIFO" `Quick test_lock_exclusive_blocks;
    Alcotest.test_case "reentrant + upgrade" `Quick test_lock_reentrant_and_upgrade;
    Alcotest.test_case "fairness: no X starvation" `Quick
      test_lock_fairness_no_starvation;
    Alcotest.test_case "deadlock detected" `Quick test_lock_deadlock_detected;
    Alcotest.test_case "upgrade deadlock detected" `Quick
      test_lock_upgrade_deadlock_detected;
    Alcotest.test_case "cancel waits" `Quick test_lock_cancel_waits;
    Alcotest.test_case "timeout" `Quick test_lock_timeout;
    Alcotest.test_case "transfer (lock inheritance)" `Quick test_lock_transfer;
    Alcotest.test_case "release unblocks shared group" `Quick
      test_lock_release_unblocks_shared_group;
    Alcotest.test_case "released keys leave the table" `Quick
      test_lock_table_forgets_released_keys;
  ]

let kv_suite =
  [
    Alcotest.test_case "commit durable" `Quick test_kv_commit_durable;
    Alcotest.test_case "abort discards" `Quick test_kv_abort_discards;
    Alcotest.test_case "read own writes" `Quick test_kv_read_own_writes;
    Alcotest.test_case "add helper" `Quick test_kv_add_helper;
    Alcotest.test_case "crash loses uncommitted" `Quick
      test_kv_crash_loses_uncommitted;
    Alcotest.test_case "prepared survives crash" `Quick
      test_kv_prepared_survives_crash;
    Alcotest.test_case "in-doubt blocks readers" `Quick
      test_kv_indoubt_blocks_readers;
    Alcotest.test_case "abort prepared" `Quick test_kv_abort_prepared;
    Alcotest.test_case "checkpoint recovery equivalence" `Quick
      test_kv_checkpoint_recovery_equivalence;
  ]

let tm_suite =
  [
    Alcotest.test_case "two-RM 2PC commit" `Quick test_tm_two_rm_commit;
    Alcotest.test_case "a local two-RM commit issues exactly one sync" `Quick
      test_tm_local_commit_one_sync;
    Alcotest.test_case "crash before the commit records are durable" `Quick
      test_tm_crash_before_commit_records_durable;
    Alcotest.test_case "End waits for the durable commit records" `Quick
      test_tm_end_waits_for_durable_commit_records;
    Alcotest.test_case "no-vote aborts all" `Quick test_tm_vote_no_aborts_all;
    Alcotest.test_case "coordinator crash => presumed abort" `Quick
      test_tm_coordinator_crash_before_decision_presumes_abort;
    Alcotest.test_case "decision survives crash, redelivers" `Quick
      test_tm_decision_survives_crash_and_redelivers;
    Alcotest.test_case "recover_pending after crash" `Quick
      test_tm_recover_pending_after_crash;
    Alcotest.test_case "empty + single participant" `Quick test_tm_empty_and_single;
    Alcotest.test_case "node log bounded by checkpoints" `Quick
      test_node_log_bounded_by_checkpoints;
    Alcotest.test_case "checkpoint during a decision force keeps the decision"
      `Quick test_checkpoint_during_decision_force;
    Alcotest.test_case "txids unique across checkpoint, crash, reboot" `Quick
      test_txids_unique_across_checkpoint_and_crash;
    Alcotest.test_case "one commit record is atomic under torn writes" `Quick
      test_one_record_atomic_under_torn_writes;
    Alcotest.test_case "abort releases" `Quick test_tm_abort_releases;
    Alcotest.test_case "hooks" `Quick test_tm_hooks;
    Alcotest.test_case "txid roundtrip" `Quick test_txid_roundtrip;
    Alcotest.test_case "on-disk format pinned" `Quick test_on_disk_format_pinned;
    Alcotest.test_case "a full-copy segment still recovers" `Quick
      test_full_copy_segment_recovers;
    Alcotest.test_case "node log checkpoint rule" `Quick test_node_log_checkpoint_rule;
    Alcotest.test_case "checkpoint hands its buffer to the disk" `Quick
      test_checkpoint_buffer_handoff;
    Alcotest.test_case "checkpoint waits for every recovered RM" `Quick
      test_checkpoint_waits_for_recovered_rms;
    Alcotest.test_case "checkpoint handoff, nothing spliced" `Quick
      test_checkpoint_buffer_handoff_unspliced;
  ]

let () =
  Alcotest.run "rrq-txn"
    [
      ("lock", lock_suite);
      ("kvdb", kv_suite);
      ("tm", tm_suite);
      ("rm", participant_suite);
    ]
