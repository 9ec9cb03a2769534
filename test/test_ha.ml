(* Tests for the HA primary-backup role (paper §11 promoted to WAL
   shipping, lib/core/ha.ml), distributed-commit atomicity under a
   crash-time sweep, and content-based scheduling.

   The first suite ports the old two-copy Replica tests onto the HA role:
   mirroring is now asynchronous state (shipped WAL batches applied by the
   warm standby) rather than a 2PC write to both copies, so "both copies
   filled" becomes "the standby's replayed state matches after a sync
   ship", and "peer down aborts" becomes "peer down degrades" — the HA
   role trades the old consistency-first abort for availability plus
   resync. The failover suite drives the full scenario world through
   crashpoint-armed kills around every replication step. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter
module Site = Rrq_core.Site
module Ha = Rrq_core.Ha
module Scenario = Rrq_check.Scenario
module Audit = Rrq_check.Audit
module World = Rrq_check.World
module Plan = Rrq_check.Plan
module H = Rrq_test_support.Sim_harness

(* --- the HA pair: shipping, degrade, resync ------------------------------ *)

let make_ha_pair ?(mode = Ha.Sync) ?(ship_timeout = 0.3) ?jitter ?sync_latency
    ?(seed = 77) s =
  let net = Net.create ~latency:0.005 ?jitter s (Rng.create seed) in
  let a =
    Site.create ~queues:[ ("rq", Qm.default_attrs) ] ~stale_timeout:2.0
      (Net.make_node ?sync_latency net "siteA")
  in
  let b =
    Site.create ~queues:[ ("rq", Qm.default_attrs) ] ~stale_timeout:2.0
      (Net.make_node ?sync_latency net "siteB")
  in
  let ha_a = Ha.attach ~mode ~ship_timeout a ~peer:"siteB" ~role:Ha.Primary in
  let ha_b = Ha.attach ~mode ~ship_timeout b ~peer:"siteA" ~role:Ha.Standby in
  (* Serving needs the boot-time rejoin probe; shipping needs the link
     daemon's first resync round. Both are a handful of RPCs away. *)
  let deadline = Sched.clock () +. 5.0 in
  while
    (not (Ha.is_serving ha_a && Ha.shipping ha_a)) && Sched.clock () < deadline
  do
    Sched.sleep 0.05
  done;
  Alcotest.(check bool) "primary serving and shipping" true
    (Ha.is_serving ha_a && Ha.shipping ha_a);
  (a, b, ha_a, ha_b)

let eids site queue =
  List.map (fun el -> el.Element.eid) (Qm.elements (Site.qm site) queue)

let test_sync_ship_mirrors_state () =
  H.run_fiber' (fun s ->
      let a, b, _, _ = make_ha_pair s in
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
      let e1 = Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "one") in
      let e2 = Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "two") in
      Alcotest.(check bool) "distinct eids" true (e1 <> e2);
      (* Sync mode: the commit force gated on the backup's ack, so by the
         time auto_commit returned the standby had already replayed it. *)
      Alcotest.(check (list int64)) "standby mirrors the queue" (eids a "rq")
        (eids b "rq");
      (match Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.No_wait) with
      | Some el -> Alcotest.(check string) "fifo" "one" el.Element.payload
      | None -> Alcotest.fail "dequeue failed");
      Alcotest.(check (list int64)) "standby mirrors the dequeue too"
        (eids a "rq") (eids b "rq");
      Alcotest.(check int) "one element left" 1 (Qm.depth (Site.qm b) "rq"))

let test_abort_ships_no_state () =
  H.run_fiber' (fun s ->
      let a, b, _, _ = make_ha_pair s in
      (try
         Site.with_txn a (fun txn ->
             let qm = Site.qm a in
             let h, _ =
               Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false
             in
             ignore (Qm.enqueue qm (Tm.txn_id txn) h "doomed");
             failwith "change of heart")
       with Failure _ -> ());
      Sched.sleep 0.5;
      Alcotest.(check int) "primary copy empty" 0 (Qm.depth (Site.qm a) "rq");
      Alcotest.(check int) "standby replayed no element" 0
        (Qm.depth (Site.qm b) "rq"))

let test_peer_down_degrades_then_resyncs () =
  H.run_fiber' (fun s ->
      let a, b, ha_a, _ = make_ha_pair s in
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "one"));
      let resyncs_before = Ha.resyncs ha_a in
      Site.crash b;
      (* Availability over the old Replica's consistency-first abort: the
         enqueue must still commit, the link must degrade. *)
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "two"));
      Alcotest.(check int) "primary served alone" 2 (Qm.depth qm "rq");
      Alcotest.(check bool) "link degraded" true (Ha.degrades ha_a >= 1);
      Alcotest.(check bool) "not shipping" false (Ha.shipping ha_a);
      (* The failed standby returns; the link daemon resyncs it with a
         full snapshot, catching up the element committed while it was
         away. *)
      Site.restart b;
      let deadline = Sched.clock () +. 10.0 in
      while
        (not (Ha.shipping ha_a && Ha.resyncs ha_a > resyncs_before))
        && Sched.clock () < deadline
      do
        Sched.sleep 0.1
      done;
      Alcotest.(check bool) "resynced" true (Ha.resyncs ha_a > resyncs_before);
      Alcotest.(check (list int64)) "standby caught up after resync"
        (eids a "rq") (eids b "rq"))

let test_idle_restarted_standby_still_promotes () =
  H.run_fiber' (fun s ->
      let a, b, _, ha_b = make_ha_pair s in
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "one"));
      let committed = eids a "rq" in
      (* The standby restarts while the primary has nothing to ship, so no
         ship fails and the primary never degrades on its own. The standby's
         heartbeats report it holds no snapshot of this incarnation, and the
         primary resyncs it. *)
      Site.crash b;
      Site.restart b;
      Sched.sleep 1.0;
      (* The primary dies for good: the resynced standby must take over. *)
      Site.crash a;
      let deadline = Sched.clock () +. 5.0 in
      while (not (Ha.is_serving ha_b)) && Sched.clock () < deadline do
        Sched.sleep 0.1
      done;
      Alcotest.(check int) "standby promoted" 1 (Ha.failovers ha_b);
      Alcotest.(check (list int64)) "promoted standby holds the commit"
        committed (eids b "rq");
      let qm_b = Site.qm b in
      let hb, _ = Qm.register qm_b ~queue:"rq" ~registrant:"t" ~stable:false in
      ignore (Qm.auto_commit qm_b (fun id -> Qm.enqueue qm_b id hb "two"));
      Alcotest.(check int) "promoted standby serves" 2 (Qm.depth qm_b "rq"))

(* A decision the primary logged for a remote participant is still
   pending (the participant is cut off from the primary) when a restarted
   standby is resynced. The node snapshot carries it, so when the primary
   dies for good the promoted standby delivers it, and the participant
   commits exactly once instead of waiting in doubt on a dead
   coordinator. *)
let test_snapshot_carries_pending_decision () =
  H.run_fiber' (fun s ->
      let net = Net.create ~latency:0.005 s (Rng.create 78) in
      let site name =
        Site.create ~queues:[ ("rq", Qm.default_attrs) ] ~stale_timeout:2.0
          (Net.make_node net name)
      in
      let a = site "siteA" and b = site "siteB" and r = site "siteR" in
      let ha_a = Ha.attach ~ship_timeout:0.3 a ~peer:"siteB" ~role:Ha.Primary in
      let ha_b = Ha.attach ~ship_timeout:0.3 b ~peer:"siteA" ~role:Ha.Standby in
      let wait_until ?(limit = 10.0) cond =
        let deadline = Sched.clock () +. limit in
        while (not (cond ())) && Sched.clock () < deadline do
          Sched.sleep 0.05
        done
      in
      wait_until (fun () -> Ha.is_serving ha_a && Ha.shipping ha_a);
      (* The standby is down while the primary commits alone. *)
      Site.crash b;
      (* The remote participant votes yes, then is cut off from the
         primary before the decision reaches it. *)
      Rrq_sim.Crashpoint.reset ();
      Fun.protect ~finally:Rrq_sim.Crashpoint.disable (fun () ->
          Rrq_sim.Crashpoint.arm ~site:"tm.prepared:siteA" ~hit:1 (fun () ->
              Net.partition net "siteA" "siteR");
          Site.with_txn a (fun txn ->
              let qm = Site.qm a in
              let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
              ignore (Qm.enqueue qm (Tm.txn_id txn) h "local");
              Site.remote_enqueue a txn ~dst:"siteR" ~queue:"rq" "remote"));
      Alcotest.(check int) "decision pending at the primary" 1
        (List.length (Tm.pending_decisions (Site.tm a)));
      Alcotest.(check int) "participant in doubt" 1
        (List.length (Qm.in_doubt (Site.qm r)));
      (* The standby returns and is resynced from a snapshot cut while the
         decision is pending. *)
      let resyncs = Ha.resyncs ha_a in
      Site.restart b;
      wait_until (fun () -> Ha.resyncs ha_a > resyncs);
      Alcotest.(check bool) "resynced" true (Ha.resyncs ha_a > resyncs);
      Alcotest.(check int) "the snapshot carried the decision" 1
        (List.length (Tm.pending_decisions (Site.tm b)));
      (* The primary dies for good. *)
      Site.crash a;
      wait_until (fun () -> Ha.is_serving ha_b);
      Alcotest.(check int) "standby promoted" 1 (Ha.failovers ha_b);
      wait_until (fun () -> Tm.pending_decisions (Site.tm b) = []);
      Sched.sleep 5.0;
      Alcotest.(check (list pass)) "decision retired" [] (Tm.pending_decisions (Site.tm b));
      Alcotest.(check int) "participant resolved" 0 (List.length (Qm.in_doubt (Site.qm r)));
      Alcotest.(check int) "remote effect exactly once" 1 (Qm.depth (Site.qm r) "rq");
      Alcotest.(check int) "local effect exactly once" 1 (Qm.depth (Site.qm b) "rq"))

(* A standby back from a crash holds only what its own disk kept, so it
   refuses the first ship round instead of applying it onto that state,
   and the primary degrades on the refusal and resyncs at once — without
   waiting for the standby's next heartbeat to report it unsynced. *)
let test_unsynced_standby_refuses_ship () =
  H.run_fiber' (fun s ->
      let a, b, ha_a, _ = make_ha_pair s in
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "one"));
      let degrades = Ha.degrades ha_a and resyncs = Ha.resyncs ha_a in
      Site.crash b;
      Site.restart b;
      let t0 = Sched.clock () in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "two"));
      (* One ship round trip: far less than the standby's heartbeat period. *)
      Alcotest.(check bool) "commit returned within a round trip" true
        (Sched.clock () -. t0 < 0.05);
      Alcotest.(check int) "degraded on the refused ship" (degrades + 1)
        (Ha.degrades ha_a);
      let deadline = Sched.clock () +. 5.0 in
      while Ha.resyncs ha_a = resyncs && Sched.clock () < deadline do
        Sched.sleep 0.05
      done;
      Alcotest.(check int) "resynced" (resyncs + 1) (Ha.resyncs ha_a);
      Alcotest.(check (list int64)) "standby caught up" (eids a "rq") (eids b "rq"))

(* Two ship rounds in flight at once on a network with jitter: a commit
   made while the previous commit's local sync is under way starts the
   next round at once, and the later round can reach the standby first.
   The standby holds it until its predecessor arrives and applies both in
   LSN order, so its queue ends up equal to the primary's. *)
let test_overtaken_round_applied_in_order () =
  Rrq_obs.reset ();
  Fun.protect ~finally:Rrq_obs.disable (fun () ->
      H.run_fiber' (fun s ->
          let a, b, _, _ =
            make_ha_pair ~jitter:0.004 ~sync_latency:0.005 ~seed:5 s
          in
          let qm = Site.qm a in
          let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
          for i = 1 to 20 do
            let done_ = ref 0 in
            List.iter
              (fun (delay, body) ->
                ignore
                  (Sched.fork (fun () ->
                       Sched.sleep delay;
                       ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h body));
                       incr done_)))
              [ (0.0, Printf.sprintf "first%d" i); (0.001, Printf.sprintf "second%d" i) ];
            while !done_ < 2 do
              Sched.sleep 0.005
            done
          done;
          Alcotest.(check bool) "a later round overtook an earlier one" true
            (Rrq_obs.Metrics.counter "ha.ships_overtaken:siteB" > 0);
          Alcotest.(check int) "forty elements" 40 (Qm.depth qm "rq");
          Alcotest.(check (list int64)) "standby applied in order" (eids a "rq")
            (eids b "rq")))

(* A batch waiting for a lost predecessor belongs to its primary's stream
   of the time. The first round is dropped by a partition and the second,
   started during the first's sync, reaches the standby and waits there.
   The primary then crash-restarts and resyncs the standby with a new
   stream whose LSNs start over; the waiting batch must be refused, not
   applied once the new stream reaches its LSNs. *)
let test_waiting_batch_dropped_by_resync () =
  H.run_fiber' (fun s ->
      let a, b, ha_a, _ =
        make_ha_pair ~ship_timeout:10.0 ~sync_latency:0.005 s
      in
      let net = Net.network (Site.node a) in
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
      let commit body =
        Net.spawn_on (Site.node a) ~name:body (fun () ->
            ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h body)))
      in
      Net.partition net "siteA" "siteB";
      commit "dropped";
      Sched.sleep 0.001;
      Net.heal net "siteA" "siteB";
      commit "waiting";
      Sched.sleep 0.05;
      let resyncs = Ha.resyncs ha_a in
      Site.crash_restart a ~after:0.1;
      let deadline = Sched.clock () +. 5.0 in
      while Ha.resyncs ha_a = resyncs && Sched.clock () < deadline do
        Sched.sleep 0.05
      done;
      Alcotest.(check int) "resynced" (resyncs + 1) (Ha.resyncs ha_a);
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
      for i = 1 to 20 do
        ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h (string_of_int i)))
      done;
      Sched.sleep 6.0;
      Alcotest.(check int) "both early commits survived the restart" 22
        (Qm.depth qm "rq");
      Alcotest.(check (list int64)) "standby equals primary" (eids a "rq")
        (eids b "rq"))

(* The standby can be ahead of its primary: a ship round leaves while the
   primary's own sync of the same records is still running. Here the
   primary dies at the end of the sync of a commit record, after the
   round carrying it left: the standby holds a commit decision, for a
   remote participant, that the primary's disk lost. The primary comes
   back, asks the standby its role (which unsyncs it) and then serves
   without the decision, so it presumes an abort and the participant
   aborts. The pair is cut apart before the resync lands, and the primary
   dies again: the standby must not promote with the decision the primary
   never had, or the participant would be told both outcomes. Once the
   primary is back, its resync replaces the standby's stale records. *)
let test_standby_ahead_never_promotes () =
  H.run_fiber' (fun s ->
      let net = Net.create ~latency:0.005 s (Rng.create 79) in
      let site ?sync_latency name =
        Site.create ~queues:[ ("rq", Qm.default_attrs) ] ~stale_timeout:2.0
          (Net.make_node ?sync_latency net name)
      in
      let a = site ~sync_latency:0.005 "siteA"
      and b = site ~sync_latency:0.005 "siteB"
      and r = site "siteR" in
      let ha_a = Ha.attach ~ship_timeout:0.3 a ~peer:"siteB" ~role:Ha.Primary in
      let ha_b = Ha.attach ~ship_timeout:0.3 b ~peer:"siteA" ~role:Ha.Standby in
      let wait_until ?(limit = 10.0) cond =
        let deadline = Sched.clock () +. limit in
        while (not (cond ())) && Sched.clock () < deadline do
          Sched.sleep 0.05
        done
      in
      wait_until (fun () -> Ha.is_serving ha_a && Ha.shipping ha_a);
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:false in
      let depth site = Qm.depth (Site.qm site) "rq" in
      Rrq_sim.Crashpoint.reset ();
      Fun.protect ~finally:Rrq_sim.Crashpoint.disable (fun () ->
          Rrq_sim.Crashpoint.arm ~site:"wal.sync:siteA.log" ~hit:1 (fun () ->
              Site.crash_restart a ~after:0.1;
              (* Back up, the primary resyncs the standby once it has
                 answered: cut the pair apart there, so no install lands. *)
              Rrq_sim.Crashpoint.arm ~site:"ha.resync" ~hit:1 (fun () ->
                  Net.partition net "siteA" "siteB");
              Rrq_sim.Crashpoint.crash ());
          Net.spawn_on (Site.node a) ~name:"txn" (fun () ->
              Site.with_txn a (fun txn ->
                  ignore (Qm.enqueue qm (Tm.txn_id txn) h "local");
                  Site.remote_enqueue a txn ~dst:"siteR" ~queue:"rq" "remote"));
          wait_until (fun () ->
              Ha.is_serving ha_a && Net.partitioned net "siteA" "siteB"));
      (* The lost sync carried the transaction's staged record: the
         standby holds its in-doubt enqueue. *)
      Alcotest.(check int) "the primary lost the commit" 0 (depth a);
      Alcotest.(check int) "the standby holds it" 1
        (List.length (Qm.in_doubt (Site.qm b)));
      wait_until (fun () -> Qm.in_doubt (Site.qm r) = []);
      Alcotest.(check int) "participant resolved" 0 (List.length (Qm.in_doubt (Site.qm r)));
      Alcotest.(check int) "participant aborted" 0 (depth r);
      (* The primary dies for good, before any resync reached the standby. *)
      Site.crash a;
      Sched.sleep 5.0;
      Alcotest.(check int) "standby did not promote" 0 (Ha.failovers ha_b);
      Alcotest.(check int) "participant still aborted" 0 (depth r);
      (* The primary returns; its resync replaces the standby's records. *)
      Net.heal net "siteA" "siteB";
      let resyncs = Ha.resyncs ha_a in
      Site.restart a;
      wait_until (fun () -> Ha.resyncs ha_a > resyncs);
      Alcotest.(check int) "standby resynced" (resyncs + 1) (Ha.resyncs ha_a);
      Alcotest.(check int) "standby dropped the lost commit" 0 (depth b);
      Sched.sleep 5.0;
      Alcotest.(check int) "participant aborted exactly once" 0 (depth r);
      Alcotest.(check int) "nothing in doubt" 0 (List.length (Qm.in_doubt (Site.qm r))))

(* A tagged dequeue ships its Rereceive copy as a reference to the element
   its own record removes. The standby resolves it while replaying, so once
   promoted it answers a retried Receive from the copy instead of handing
   out the next reply. The Receive, from the client's own reply queue, is
   lazy: a force of the primary's log (what the client's next Send does)
   makes it durable and ships it before the crash. *)
let test_promoted_standby_answers_retried_receive () =
  H.run_fiber' (fun s ->
      let a, b, _, ha_b = make_ha_pair s in
      let qm = Site.qm a in
      let rq = Rrq_core.Shard.reply_queue "c" in
      ignore (Site.clerk_service a (Site.Q_create_queue rq));
      let h, _ = Qm.register qm ~queue:rq ~registrant:"srv" ~stable:false in
      let reply rid body =
        let env =
          Rrq_core.Envelope.make ~rid ~client_id:"c" ~reply_node:"siteA"
            ~reply_queue:rq ~kind:"reply" body
        in
        ignore
          (Qm.auto_commit qm (fun id ->
               Qm.enqueue qm id h ~props:(Rrq_core.Envelope.props env) body))
      in
      reply "r1" "reply-1";
      reply "r2" "reply-2";
      let receive site =
        match
          Site.clerk_service site
            (Site.Q_dequeue
               {
                 registrant = "c";
                 queue = rq;
                 tag = Some (Rrq_core.Tag.receive ~rid:(Some "r1") ~ckpt:None);
                 filter = None;
                 timeout = None;
               })
        with
        | Site.R_element (Some v) -> v.Site.v_payload
        | Site.R_element None -> "<empty>"
        | _ -> Alcotest.fail "unexpected reply to dequeue"
      in
      Alcotest.(check string) "received" "reply-1" (receive a);
      Rrq_txn.Node_log.force (Site.log a);
      Alcotest.(check int) "the Receive shipped" 1 (Qm.depth (Site.qm b) rq);
      Site.crash a;
      let deadline = Sched.clock () +. 5.0 in
      while (not (Ha.is_serving ha_b)) && Sched.clock () < deadline do
        Sched.sleep 0.1
      done;
      Alcotest.(check int) "standby promoted" 1 (Ha.failovers ha_b);
      Alcotest.(check string) "retried receive answered from the copy" "reply-1"
        (receive b);
      Alcotest.(check int) "the next reply stays queued" 1 (Qm.depth (Site.qm b) rq))

(* 16 KiB bodies on a Sync pair: the primary logs them by reference and
   ships each record as one flat frame, which the standby logs and
   replays. When the primary dies the promoted standby holds the element
   and the registration's Rereceive copy, byte for byte. *)
let test_large_bodies_survive_failover () =
  H.run_fiber' (fun s ->
      let a, b, _, ha_b = make_ha_pair s in
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"rq" ~registrant:"t" ~stable:true in
      let body c = String.init 16384 (fun i -> Char.chr ((Char.code c + i) land 0xff)) in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag:"e1" (body 'a')));
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag:"e2" (body 'b')));
      ignore (Qm.auto_commit qm (fun id -> Qm.dequeue qm id h ~tag:"d1" Qm.No_wait));
      Site.crash a;
      let deadline = Sched.clock () +. 5.0 in
      while (not (Ha.is_serving ha_b)) && Sched.clock () < deadline do
        Sched.sleep 0.1
      done;
      Alcotest.(check int) "standby promoted" 1 (Ha.failovers ha_b);
      let qm_b = Site.qm b in
      Alcotest.(check bool) "it holds the element, byte for byte" true
        (List.map (fun el -> el.Element.payload) (Qm.elements qm_b "rq") = [ body 'b' ]);
      let hb, _ = Qm.register qm_b ~queue:"rq" ~registrant:"t" ~stable:true in
      Alcotest.(check bool) "and the Rereceive copy" true
        (Option.map (fun el -> el.Element.payload) (Qm.read_last qm_b hb)
         = Some (body 'a')))

let ha_suite =
  [
    Alcotest.test_case "sync ship mirrors queue state" `Quick
      test_sync_ship_mirrors_state;
    Alcotest.test_case "abort ships no state" `Quick test_abort_ships_no_state;
    Alcotest.test_case "peer down degrades, resync catches up" `Quick
      test_peer_down_degrades_then_resyncs;
    Alcotest.test_case "standby restarted while idle is resynced, promotes"
      `Quick test_idle_restarted_standby_still_promotes;
    Alcotest.test_case "resync snapshot carries a pending decision" `Quick
      test_snapshot_carries_pending_decision;
    Alcotest.test_case "unsynced standby refuses a ship, primary resyncs" `Quick
      test_unsynced_standby_refuses_ship;
    Alcotest.test_case "overtaken ship round applied in LSN order" `Quick
      test_overtaken_round_applied_in_order;
    Alcotest.test_case "standby ahead of a rejoined primary never promotes"
      `Quick test_standby_ahead_never_promotes;
    Alcotest.test_case "batch waiting across a resync is refused" `Quick
      test_waiting_batch_dropped_by_resync;
    Alcotest.test_case "promoted standby answers a retried receive" `Quick
      test_promoted_standby_answers_retried_receive;
    Alcotest.test_case "16 KiB bodies survive a failover" `Quick
      test_large_bodies_survive_failover;
  ]

(* --- failover: the scenario world under kills around every HA step ------- *)

let check_pass ~failovers name (o : Scenario.outcome) =
  Alcotest.(check string)
    (name ^ ": auditors")
    "all auditors passed"
    (Audit.findings_to_string o.Scenario.findings);
  Alcotest.(check int) (name ^ ": every reply delivered") o.Scenario.requests
    o.Scenario.replies;
  Alcotest.(check int) (name ^ ": promotions") failovers o.Scenario.failovers

let plan faults = Plan.make ~seed:0 ~policy:`Fifo ~faults

let test_ha_fault_free () =
  check_pass ~failovers:0 "fault-free" (Scenario.run Scenario.ha (plan []))

let test_kill_primary_before_first_ship () =
  (* t=0.05: before any conversation traffic shipped — the standby
     promotes from (at most) registration state and serves every request
     itself. *)
  check_pass ~failovers:1 "kill before ship"
    (Scenario.run Scenario.ha
       (plan [ Plan.Crash { node = "primary"; at = 0.05; recover_after = 6.0 } ]))

let test_kill_primary_at_ship_sent () =
  (* The backup holds the first batch and has acked it; the primary dies
     before releasing the committer (no reply escaped). *)
  check_pass ~failovers:1 "kill at ship.sent"
    (Scenario.crash_at ~site:"ship.sent" ~hit:1 ~victim:"primary"
       ~recover_after:6.0 Scenario.ha)

let test_kill_primary_at_ship_applied () =
  (* The batch is durable on the backup but the ack is still in flight:
     the primary dies mid-RPC, the shipped effects must survive on the
     promoted standby exactly once. *)
  check_pass ~failovers:1 "kill at ship.applied"
    (Scenario.crash_at ~site:"ship.applied" ~hit:1 ~victim:"primary"
       ~recover_after:6.0 Scenario.ha)

let test_kill_backup_during_promote () =
  (* The standby dies inside promotion, before the durable role flip, and
     is back a second later while the primary (killed at t=2) stays down
     until t=8. The standby holds every commit — the primary died first —
     but cannot tell this from a primary that came back and committed
     alone while it was down, so it does not promote before a resync: the
     pair waits for the primary. This is the availability price of never
     promoting a stale standby. *)
  check_pass ~failovers:0 "kill during promote"
    (Scenario.crash_at ~site:"ha.promote" ~hit:1 ~victim:"backup"
       ~recover_after:1.0 Scenario.ha)

let test_double_failover () =
  (* Primary dies; backup promotes (epoch 2); ex-primary returns, demotes
     itself into the standby seat; then the new primary dies too and the
     recovered ex-primary takes the service back (epoch 3). *)
  check_pass ~failovers:2 "double failover"
    (Scenario.run Scenario.ha
       (plan
          [
            Plan.Crash { node = "primary"; at = 2.0; recover_after = 4.0 };
            Plan.Crash { node = "backup"; at = 12.0; recover_after = 6.0 };
          ]))

let test_stale_standby_never_promotes () =
  (* Shard0 of the sharded world is an HA pair. Its standby dies at once
     and is back at t=1.01, but the degraded primary has not resynced it
     when the primary dies at t=2. The standby holds none of the requests
     the primary executed alone: it must wait for the primary to return
     rather than promote and lose them. *)
  check_pass ~failovers:0 "stale standby"
    (Scenario.run Scenario.sharded_ha
       (plan
          [
            Plan.Crash { node = "standby0"; at = 0.01; recover_after = 1.0 };
            Plan.Crash { node = "shard0"; at = 2.0; recover_after = 6.0 };
          ]))

let test_resync_waits_for_ship_in_flight () =
  (* The standby of shard0 dies while a ship round of the primary is in
     flight, during the first requests' commits. The ship RPC hangs until
     its 2 s timeout. The standby is back at t~1.07 and its heartbeat asks
     for a resync, but the snapshot must wait for that round: the round
     holds commits durable on the primary that a snapshot cut beside it
     races, and the stale round's timeout would tear down the new link.
     The primary dies (t=2) before the round ends, so the pair waits for
     it instead of promoting a standby resynced mid-round. *)
  check_pass ~failovers:0 "resync behind a ship in flight"
    (Scenario.crash_at ~site:"wal.sync:standby0.log" ~hit:6
       ~recover_after:1.0 Scenario.sharded_ha)

let failover_suite =
  [
    Alcotest.test_case "fault-free pair" `Quick test_ha_fault_free;
    Alcotest.test_case "kill primary before first ship" `Quick
      test_kill_primary_before_first_ship;
    Alcotest.test_case "kill primary at ship.sent" `Quick
      test_kill_primary_at_ship_sent;
    Alcotest.test_case "kill primary at ship.applied" `Quick
      test_kill_primary_at_ship_applied;
    Alcotest.test_case "kill backup during promote" `Quick
      test_kill_backup_during_promote;
    Alcotest.test_case "double failover" `Quick test_double_failover;
    Alcotest.test_case "standby back before its resync never promotes" `Quick
      test_stale_standby_never_promotes;
    Alcotest.test_case "resync waits for a ship round in flight" `Quick
      test_resync_waits_for_ship_in_flight;
  ]

(* --- an HA pair as one shard of a sharded deployment ---------------------- *)

module Shard = Rrq_core.Shard
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Kvdb = Rrq_kvdb.Kvdb

(* Shard0 is an HA pair (hs0p primary, hs0b warm standby — the shard map
   lists hs0b as shard0's backup candidate); hs1 and hs2 are plain shard
   repositories. Client "ha" is pinned entirely onto the pair; client "hb"
   spans the healthy shards (requests on hs1, replies on hs2, so every one
   of its requests commits through cross-shard 2PC). *)
let shard_ha_map =
  {
    Shard.version = 1;
    shards = [ "hs0p"; "hs1"; "hs2" ];
    backups = [ ("hs0p", [ "hs0b" ]) ];
    sharded_queues = [ "req" ];
    pins =
      [
        ("req#ha", "hs0p");
        ("reply.ha", "hs0p");
        ("req#hb", "hs1");
        ("reply.hb", "hs2");
      ];
  }

(* The pair and the plain shards, with counting servers on each serving
   node. *)
let shard_ha_world net =
  World.build net
    {
      (World.single "hs0p") with
      repos =
        [
          World.Pair
            { primary = "hs0p"; standby = "hs0b"; mode = Ha.Sync; sync_latency = 0.0;
              cold = None };
          World.Single "hs1";
          World.Single "hs2";
        ];
      shards = Some { World.map = shard_ha_map; untag_forward_bug = false };
      server = World.counting_server 2;
    }

(* Killing hs0p mid-run must fail client "ha" over to the promoted hs0b —
   same rids, duplicate suppression from shipped registration state — while
   "hb" and its in-flight cross-shard transactions never notice. *)
let test_shard_ha_failover () =
  let replies = ref 0 in
  let clients_done = ref 0 in
  let hb_done_at = ref infinity in
  let rids = [ "ha-r0"; "ha-r1"; "hb-r0"; "hb-r1" ] in
  let client ~client_node ~client_id () =
    let rec connect n =
      match
        Clerk.connect ~client_node ~system:"hs0p" ~shard_map:shard_ha_map
          ~client_id ~req_queue:"req" ~retries:8 ()
      with
      | clerk, _ -> clerk
      | exception Clerk.Unavailable _ when n > 0 ->
        Sched.sleep 1.0;
        connect (n - 1)
    in
    let clerk = connect 60 in
    for r = 0 to 1 do
      (* the second request straddles the t=1.5 primary kill *)
      if r > 0 then Sched.sleep 1.2;
      let rid = Printf.sprintf "%s-r%d" client_id r in
      let rec send n =
        try ignore (Clerk.send clerk ~rid ("work:" ^ rid))
        with Clerk.Unavailable _ when n > 0 ->
          Sched.sleep 1.0;
          send (n - 1)
      in
      send 60;
      let deadline = Sched.clock () +. 60.0 in
      let rec recv () =
        let reply =
          try Clerk.receive clerk ~timeout:2.0 ()
          with Clerk.Unavailable _ ->
            Sched.sleep 1.0;
            None
        in
        match reply with
        | Some env when env.Envelope.kind <> "intermediate" -> incr replies
        | _ -> if Sched.clock () < deadline then recv ()
      in
      recv ()
    done
  in
  H.run_fiber' (fun s ->
      let net = Net.create ~latency:0.005 s (Rng.create 99) in
      let world = shard_ha_world net in
      let ha_b = World.ha world "hs0b" in
      let client_node = Net.make_node net "client" in
      let site_p = World.site world "hs0p" in
      Sched.at s 1.5 (fun () -> Site.crash_restart site_p ~after:8.0);
      ignore
        (Sched.fork ~name:"client-ha" (fun () ->
             client ~client_node ~client_id:"ha" ();
             incr clients_done));
      ignore
        (Sched.fork ~name:"client-hb" (fun () ->
             client ~client_node ~client_id:"hb" ();
             hb_done_at := Sched.clock ();
             incr clients_done));
      let deadline = Sched.clock () +. 200.0 in
      while !clients_done < 2 && Sched.clock () < deadline do
        Sched.sleep 0.25
      done;
      Alcotest.(check int) "both clients finished" 2 !clients_done;
      (* settle: failover, rejoin, resolvers, janitors *)
      Sched.sleep 25.0;
      Alcotest.(check bool) "the pair failed over" true (Ha.is_serving ha_b);
      (* The healthy shards never noticed: client hb's conversations — all
         cross-shard 2PC — completed before the pair even finished its
         takeover, let alone the t=9.5 primary recovery. *)
      Alcotest.(check bool)
        (Printf.sprintf "hb unaffected by the shard0 failover (done at %.2f)"
           !hb_done_at)
        true (!hb_done_at < 5.0);
      Alcotest.(check int) "every reply delivered" 4 !replies;
      let auth_sites () = World.authoritative world in
      let all_sites () = List.map snd (World.sites world) in
      let findings =
        Audit.run
          [
            Audit.exactly_once ~sites:auth_sites ~rids:(fun () -> rids);
            Audit.conservation ~name:"exec-total" ~expected:(List.length rids)
              ~actual:(fun () ->
                List.fold_left
                  (fun acc site ->
                    acc
                    +
                    match Kvdb.committed_value (Site.kv site) "total" with
                    | Some v -> Option.value ~default:0 (int_of_string_opt v)
                    | None -> 0)
                  0 (auth_sites ()));
            Audit.queue_integrity ~sites:all_sites;
            Audit.no_in_doubt ~sites:all_sites;
          ]
      in
      Alcotest.(check string) "auditors across the sharded pair"
        "all auditors passed"
        (Audit.findings_to_string findings))

(* After the promotion the clerk stays on hs0b: only the first request
   pays for finding hs0p dead. A clerk that tried the owner first on every
   call would wait out a full rpc timeout on each Send and Receive. *)
let test_shard_failover_sticks_to_standby () =
  H.run_fiber' (fun s ->
      let net = Net.create ~latency:0.005 s (Rng.create 99) in
      let world = shard_ha_world net in
      let ha_b = World.ha world "hs0b" in
      let clerk, _ =
        Clerk.connect ~client_node:(Net.make_node net "client") ~system:"hs0p"
          ~shard_map:shard_ha_map ~client_id:"ha" ~req_queue:"req" ()
      in
      (* The primary's death undoes the Receive of ha-r0, which it had
         not shipped: that reply stays queued on the standby, and no
         Receive of a later rid takes it. *)
      let request rid =
        ignore (Clerk.send clerk ~rid ("work:" ^ rid));
        match Clerk.receive clerk ~timeout:2.0 () with
        | Some env ->
          Alcotest.(check string) "reply to the request" rid env.Envelope.rid
        | None -> Alcotest.fail ("no reply to " ^ rid)
      in
      request "ha-r0";
      (* The primary dies for good. *)
      Site.crash (World.site world "hs0p");
      let deadline = Sched.clock () +. 10.0 in
      while (not (Ha.is_serving ha_b)) && Sched.clock () < deadline do
        Sched.sleep 0.1
      done;
      Alcotest.(check bool) "standby promoted" true (Ha.is_serving ha_b);
      request "ha-r1";
      let t0 = Sched.clock () in
      List.iter request [ "ha-r2"; "ha-r3"; "ha-r4" ];
      let took = Sched.clock () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "3 requests on the promoted standby took %.3f s" took)
        true (took < 1.0))

let shard_ha_suite =
  [
    Alcotest.test_case "HA pair as one shard: failover isolated" `Quick
      test_shard_ha_failover;
    Alcotest.test_case "clerk stays on the promoted standby" `Quick
      test_shard_failover_sticks_to_standby;
  ]

(* --- distributed commit atomicity under a crash-time sweep ---------------- *)

(* Sites A (queue qa) and B (queue qb) on a 5 ms network. *)
let two_sites ?sync_latency ?(stale_timeout = 1.0) s =
  let net = Net.create s (Rng.create 7) in
  let site queue name =
    Site.create ~queues:[ (queue, Qm.default_attrs) ] ~stale_timeout
      (Net.make_node ?sync_latency net name)
  in
  (net, site "qa" "siteA", site "qb" "siteB")

let depth site queue = Qm.depth (Site.qm site) queue

(* Run [f] in a transaction on A, in a fiber of A's (so a crash of A kills
   it); [result] gets its outcome if it returns. *)
let spawn_txn a f =
  let result = ref None in
  Net.spawn_on (Site.node a) ~name:"txn" (fun () ->
      result :=
        Some
          (match Site.with_txn a f with
          | () -> Tm.Committed
          | exception Site.Aborted _ -> Tm.Aborted));
  result

(* Enqueue "x" locally on A and remotely on B. *)
let enqueue_both a txn =
  let h, _ = Qm.register (Site.qm a) ~queue:"qa" ~registrant:"t" ~stable:false in
  ignore (Qm.enqueue (Site.qm a) (Tm.txn_id txn) h "x");
  Site.remote_enqueue a txn ~dst:"siteB" ~queue:"qb" "x"

(* A transaction enqueues on two sites while the coordinator A or the
   participant B crashes at a swept offset. Whatever the timing, after
   recovery both queues must agree (both have the element or neither). *)
let atomicity_at_crash_time ~victim crash_at =
  H.run_fiber' (fun s ->
      let _, a, b = two_sites s in
      Sched.at s crash_at (fun () ->
          Site.crash_restart (if victim = `Coordinator then a else b) ~after:1.0);
      let result = spawn_txn a (enqueue_both a) in
      (* allow recovery, resolution and commit redelivery to settle *)
      Sched.sleep 15.0;
      (!result, depth a "qa", depth b "qb"))

let test_2pc_atomic_under_crash_sweep () =
  List.iter
    (fun (victim, crash_at) ->
      let result, da, db = atomicity_at_crash_time ~victim crash_at in
      let tag =
        Printf.sprintf "%s crash at %.3f (committed=%b)"
          (if victim = `Coordinator then "coordinator" else "participant")
          crash_at (result = Some Tm.Committed)
      in
      Alcotest.(check bool)
        (tag ^ ": both or neither")
        true
        ((da = 1 && db = 1) || (da = 0 && db = 0));
      if result = Some Tm.Committed then
        Alcotest.(check int) (tag ^ ": committed implies both") 1 da;
      if result = Some Tm.Aborted then
        Alcotest.(check int) (tag ^ ": aborted implies neither") 0 da)
    (List.concat_map
       (fun victim ->
         List.map
           (fun t -> (victim, t))
           [ 0.001; 0.004; 0.008; 0.012; 0.016; 0.02; 0.03; 0.05 ])
       [ `Participant; `Coordinator ])

(* The participant loses its buffered work before the prepare: it
   crash-restarts, or crash-restarts between two operations of the
   transaction. Either way it must vote no, and nothing commits. *)
let test_lost_work_votes_no () =
  List.iter
    (fun second_op ->
      let result, da, db =
        H.run_fiber' (fun s ->
            let _, a, b = two_sites s in
            let result =
              spawn_txn a (fun txn ->
                  enqueue_both a txn;
                  Site.crash_restart b ~after:0.05;
                  Sched.sleep 0.5;
                  if second_op then
                    Site.remote_enqueue a txn ~dst:"siteB" ~queue:"qb" "y")
            in
            Sched.sleep 15.0;
            (!result, depth a "qa", depth b "qb"))
      in
      let tag = if second_op then "restart between ops" else "restart before prepare" in
      Alcotest.(check bool) (tag ^ ": aborted") true (result = Some Tm.Aborted);
      Alcotest.(check int) (tag ^ ": nothing local") 0 da;
      Alcotest.(check int) (tag ^ ": nothing remote") 0 db)
    [ false; true ]

(* --- parallel commit: the designed cases ---------------------------------- *)

(* Arm a one-shot action at a crash site for the rest of [f]. *)
let armed ~site action f =
  Rrq_sim.Crashpoint.reset ();
  Fun.protect ~finally:Rrq_sim.Crashpoint.disable (fun () ->
      Rrq_sim.Crashpoint.arm ~site ~hit:1 action;
      f ())

(* The coordinator dies after B voted yes and took the commit, before A's
   decision record is durable (it is not forced, and the settle fiber has
   not run). A's recovery finds the staged record alone; B remembers the
   commit, so recovery commits: the request is consumed once and its reply
   is queued once. *)
let test_participant_remembers_commit () =
  H.run_fiber' (fun s ->
      let _, a, b = two_sites ~sync_latency:0.005 s in
      let qm = Site.qm a in
      let h, _ = Qm.register qm ~queue:"qa" ~registrant:"t" ~stable:false in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "request"));
      armed ~site:"tm.delivered:siteA"
        (fun () ->
          Alcotest.(check int) "B remembers the commit" 1
            (List.length (Qm.remembered (Site.qm b)));
          Site.crash_restart a ~after:0.5;
          Rrq_sim.Crashpoint.crash ())
        (fun () ->
          ignore
            (spawn_txn a (fun txn ->
                 let h, _ = Qm.register (Site.qm a) ~queue:"qa" ~registrant:"t" ~stable:false in
                 ignore (Qm.dequeue (Site.qm a) (Tm.txn_id txn) h Qm.No_wait);
                 Site.remote_enqueue a txn ~dst:"siteB" ~queue:"qb" "reply"));
          Sched.sleep 5.0);
      Alcotest.(check int) "request consumed" 0 (depth a "qa");
      Alcotest.(check int) "one reply" 1 (depth b "qb");
      Alcotest.(check int) "nothing in doubt at A" 0 (List.length (Qm.in_doubt (Site.qm a)));
      Alcotest.(check int) "B forgot the commit" 0 (List.length (Qm.remembered (Site.qm b))))

(* The coordinator dies with its staged record durable while B, which
   buffered the enqueue, is cut off from it, so B never prepared. Once the
   link heals, recovery's status query finds only B's workspace (B's
   janitor would take half a minute): B answers unknown and discards it,
   recovery aborts, and a prepare arriving late votes no and leaves
   nothing behind. *)
let test_status_discards_workspace () =
  H.run_fiber' (fun s ->
      let net, a, b = two_sites ~stale_timeout:30.0 s in
      let id = ref None in
      armed ~site:"tm.staged:siteA"
        (fun () ->
          Site.crash_restart a ~after:0.5;
          Rrq_sim.Crashpoint.crash ())
        (fun () ->
          ignore
            (spawn_txn a (fun txn ->
                 id := Some (Tm.txn_id txn);
                 enqueue_both a txn;
                 Net.partition net "siteA" "siteB"));
          Sched.sleep 2.0);
      let id = Option.get !id in
      Alcotest.(check bool) "undecided while B is unreachable" true
        (Tm.decision (Site.tm a) id = `Pending);
      Net.heal net "siteA" "siteB";
      Sched.sleep 2.0;
      Alcotest.(check bool) "recovery aborted" true (Tm.decision (Site.tm a) id = `Aborted);
      let late =
        Net.call (Site.node a) ~dst:"siteB" ~service:"rm"
          (Site.RM_prepare
             { rm = "qm@siteB"; id; coordinator = "siteA"; inc = Qm.incarnation (Site.qm b) })
      in
      Alcotest.(check bool) "the late prepare votes no" true (late = Site.R_bool false);
      Alcotest.(check int) "B keeps nothing in doubt" 0 (List.length (Qm.in_doubt (Site.qm b)));
      Alcotest.(check int) "nothing at A" 0 (depth a "qa");
      Alcotest.(check int) "nothing at B" 0 (depth b "qb"))

(* B prepares but its yes vote is lost (the link is cut during its prepare
   force), so A's prepare times out and [Tm.commit] returns [Aborted]; A
   dies at once. The abort record was forced before the outcome was
   returned, so recovery does not find B prepared and commit. A first
   transaction registers B's queue, so B's next sync is the prepare. *)
let test_forced_abort_survives_crash () =
  H.run_fiber' (fun s ->
      let net, a, b = two_sites ~sync_latency:0.005 s in
      ignore (spawn_txn a (enqueue_both a));
      Sched.sleep 1.0;
      let result = ref None in
      armed ~site:"wal.sync:siteB.log"
        (fun () -> Net.partition net "siteA" "siteB")
        (fun () ->
          Net.spawn_on (Site.node a) ~name:"txn" (fun () ->
              result :=
                Some
                  (match Site.with_txn a (enqueue_both a) with
                  | () -> Tm.Committed
                  | exception Site.Aborted _ -> Tm.Aborted);
              Site.crash_restart a ~after:0.5);
          Sched.sleep 12.0);
      Alcotest.(check bool) "the prepare timed out: aborted" true (!result = Some Tm.Aborted);
      Net.heal net "siteA" "siteB";
      Sched.sleep 5.0;
      Alcotest.(check int) "only the first transaction at A" 1 (depth a "qa");
      Alcotest.(check int) "only the first transaction at B" 1 (depth b "qb");
      Alcotest.(check int) "B resolved" 0 (List.length (Qm.in_doubt (Site.qm b))))

(* Participants remember commits only until the coordinator's decision
   records are durable: a quiet second after a burst, nothing is left. *)
let test_commit_memory_drains () =
  H.run_fiber' (fun s ->
      let _, a, b = two_sites ~sync_latency:0.005 s in
      for _ = 1 to 5 do
        ignore (spawn_txn a (enqueue_both a))
      done;
      Sched.sleep 0.1;
      Alcotest.(check int) "all committed" 5 (depth b "qb");
      Alcotest.(check bool) "B remembers them" true (Qm.remembered (Site.qm b) <> []);
      Sched.sleep 1.0;
      Alcotest.(check int) "B forgot them" 0 (List.length (Qm.remembered (Site.qm b))))

(* --- content-based scheduling (ranked dequeue, paper 11) ------------------ *)

let test_ranked_dequeue_highest_dollar_first () =
  H.run_fiber (fun () ->
      let disk = Rrq_storage.Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "orders";
      let h, _ = Qm.register qm ~queue:"orders" ~registrant:"t" ~stable:false in
      List.iter
        (fun (p, amt) ->
          ignore
            (Qm.auto_commit qm (fun id ->
                 Qm.enqueue qm id h ~props:[ ("amount", string_of_int amt) ] p)))
        [ ("small", 10); ("huge", 5000); ("medium", 300) ];
      let rank el =
        match Element.prop el "amount" with
        | Some a -> float_of_string a
        | None -> 0.0
      in
      let next () =
        match
          Qm.auto_commit qm (fun id -> Qm.dequeue qm id h ~rank Qm.No_wait)
        with
        | Some el -> el.Element.payload
        | None -> "<empty>"
      in
      let first = next () in
      let second = next () in
      let third = next () in
      Alcotest.(check (list string)) "largest amounts first"
        [ "huge"; "medium"; "small" ]
        [ first; second; third ])

let test_ranked_dequeue_with_filter () =
  H.run_fiber (fun () ->
      let disk = Rrq_storage.Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "orders";
      let h, _ = Qm.register qm ~queue:"orders" ~registrant:"t" ~stable:false in
      List.iter
        (fun (p, kind, amt) ->
          ignore
            (Qm.auto_commit qm (fun id ->
                 Qm.enqueue qm id h
                   ~props:[ ("kind", kind); ("amount", string_of_int amt) ]
                   p)))
        [ ("a", "sell", 100); ("b", "buy", 900); ("c", "sell", 500) ];
      let rank el =
        match Element.prop el "amount" with
        | Some a -> float_of_string a
        | None -> 0.0
      in
      match
        Qm.auto_commit qm (fun id ->
            Qm.dequeue qm id h ~filter:(Filter.Prop_eq ("kind", "sell")) ~rank
              Qm.No_wait)
      with
      | Some el ->
        Alcotest.(check string) "largest sell, not the larger buy" "c"
          el.Element.payload
      | None -> Alcotest.fail "expected an element")

let atomicity_suite =
  [
    Alcotest.test_case "2PC atomic under crash sweep" `Quick
      test_2pc_atomic_under_crash_sweep;
    Alcotest.test_case "a participant that lost its work votes no" `Quick
      test_lost_work_votes_no;
  ]

let parallel_commit_suite =
  [
    Alcotest.test_case "participant memory: recovery commits" `Quick
      test_participant_remembers_commit;
    Alcotest.test_case "status discards the workspace: recovery aborts" `Quick
      test_status_discards_workspace;
    Alcotest.test_case "forced abort survives a crash" `Quick
      test_forced_abort_survives_crash;
    Alcotest.test_case "commit memory drains in a quiet second" `Quick
      test_commit_memory_drains;
  ]

let scheduling_suite =
  [
    Alcotest.test_case "highest dollar first" `Quick
      test_ranked_dequeue_highest_dollar_first;
    Alcotest.test_case "rank + filter" `Quick test_ranked_dequeue_with_filter;
  ]

let () =
  Alcotest.run "rrq-ha"
    [
      ("ha", ha_suite);
      ("failover", failover_suite);
      ("sharded-failover", shard_ha_suite);
      ("parallel-commit", parallel_commit_suite);
      ("atomicity", atomicity_suite);
      ("scheduling", scheduling_suite);
    ]
