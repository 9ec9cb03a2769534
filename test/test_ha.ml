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
module Plan = Rrq_check.Plan
module H = Rrq_test_support.Sim_harness

(* --- the HA pair: shipping, degrade, resync ------------------------------ *)

let make_ha_pair ?(mode = Ha.Sync) ?(ship_timeout = 0.3) s =
  let net = Net.create ~latency:0.005 s (Rng.create 77) in
  let a =
    Site.create ~queues:[ ("rq", Qm.default_attrs) ] ~stale_timeout:2.0
      (Net.make_node net "siteA")
  in
  let b =
    Site.create ~queues:[ ("rq", Qm.default_attrs) ] ~stale_timeout:2.0
      (Net.make_node net "siteB")
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

let ha_suite =
  [
    Alcotest.test_case "sync ship mirrors queue state" `Quick
      test_sync_ship_mirrors_state;
    Alcotest.test_case "abort ships no state" `Quick test_abort_ships_no_state;
    Alcotest.test_case "peer down degrades, resync catches up" `Quick
      test_peer_down_degrades_then_resyncs;
    Alcotest.test_case "standby restarted while idle is resynced, promotes"
      `Quick test_idle_restarted_standby_still_promotes;
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
     flight, during the first request's cross-shard commit. The ship RPC
     hangs until its 2 s timeout. The standby is back at t~1.07 and its
     heartbeat asks for a resync, but the snapshot must wait for that
     round: taken earlier, it misses the commit, durable on the primary
     but unapplied, so the standby promotes at the primary's death (t=2),
     re-executes the request, and the returning primary commits a second
     reply. The primary dies before the round ends, so the pair waits. *)
  check_pass ~failovers:0 "resync behind a ship in flight"
    (Scenario.crash_at ~site:"wal.sync:qm@standby0.qmlog" ~hit:6
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
module Server = Rrq_core.Server
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

(* Builds the pair and the plain shards, with counting servers on each
   serving node; returns the pair's sites, the standby's role and hs1, hs2. *)
let shard_ha_world net =
  let site name =
    Site.create ~queues:[ ("req", Qm.default_attrs) ] ~stale_timeout:3.0
      (Net.make_node net name)
  in
  let plain name =
    let s = site name in
    ignore (Server.start s ~req_queue:"req" ~threads:2 Audit.counting_handler);
    ignore (Shard.attach s shard_ha_map);
    s
  in
  let site_p = site "hs0p" in
  let site_b = site "hs0b" in
  let serve ha =
    ignore
      (Server.start_here (Ha.site ha) ~req_queue:"req" ~threads:2
         Audit.counting_handler)
  in
  let _ha_p =
    Ha.attach ~mode:Ha.Sync ~on_serving:serve site_p ~peer:"hs0b"
      ~role:Ha.Primary
  in
  let ha_b =
    Ha.attach ~mode:Ha.Sync ~on_serving:serve site_b ~peer:"hs0p"
      ~role:Ha.Standby
  in
  ignore (Shard.attach site_p shard_ha_map);
  ignore (Shard.attach site_b shard_ha_map);
  let site_1 = plain "hs1" in
  let site_2 = plain "hs2" in
  (site_p, site_b, ha_b, site_1, site_2)

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
      let site_p, site_b, ha_b, site_1, site_2 = shard_ha_world net in
      let client_node = Net.make_node net "client" in
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
      let pair_auth () = if Ha.is_serving ha_b then site_b else site_p in
      let auth_sites () = [ pair_auth (); site_1; site_2 ] in
      let all_sites () = [ site_p; site_b; site_1; site_2 ] in
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
      let site_p, _, ha_b, _, _ = shard_ha_world net in
      let clerk, _ =
        Clerk.connect ~client_node:(Net.make_node net "client") ~system:"hs0p"
          ~shard_map:shard_ha_map ~client_id:"ha" ~req_queue:"req" ()
      in
      let request rid =
        ignore (Clerk.send clerk ~rid ("work:" ^ rid));
        match Clerk.receive clerk ~timeout:2.0 () with
        | Some env ->
          Alcotest.(check string) "reply to the request" rid env.Envelope.rid
        | None -> Alcotest.fail ("no reply to " ^ rid)
      in
      request "ha-r0";
      (* The primary dies for good. *)
      Site.crash site_p;
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

(* A transaction enqueues on two sites via 2PC while site B crashes at a
   swept offset. Whatever the timing, after recovery both queues must agree
   (both have the element or neither). *)
let atomicity_at_crash_time crash_at =
  H.run_fiber' (fun s ->
      let net = Net.create s (Rng.create 7) in
      let a =
        Site.create ~queues:[ ("qa", Qm.default_attrs) ] ~stale_timeout:1.0
          (Net.make_node net "siteA")
      in
      let b =
        Site.create ~queues:[ ("qb", Qm.default_attrs) ] ~stale_timeout:1.0
          (Net.make_node net "siteB")
      in
      Sched.at s crash_at (fun () -> Site.crash_restart b ~after:1.0);
      let committed =
        match
          Site.with_txn a (fun txn ->
              let h, _ =
                Qm.register (Site.qm a) ~queue:"qa" ~registrant:"t" ~stable:false
              in
              ignore (Qm.enqueue (Site.qm a) (Tm.txn_id txn) h "x");
              Site.remote_enqueue a txn ~dst:"siteB" ~queue:"qb" "x")
        with
        | () -> true
        | exception Site.Aborted _ -> false
      in
      (* allow in-doubt resolution and commit redelivery to settle *)
      Sched.sleep 15.0;
      let da = Qm.depth (Site.qm a) "qa" in
      let db = Qm.depth (Site.qm b) "qb" in
      (committed, da, db))

let test_2pc_atomic_under_crash_sweep () =
  List.iter
    (fun crash_at ->
      let committed, da, db = atomicity_at_crash_time crash_at in
      let tag = Printf.sprintf "crash at %.3f (committed=%b)" crash_at committed in
      Alcotest.(check bool)
        (tag ^ ": both or neither")
        true
        ((da = 1 && db = 1) || (da = 0 && db = 0));
      if committed then
        Alcotest.(check int) (tag ^ ": committed implies both") 1 da)
    [ 0.001; 0.004; 0.008; 0.012; 0.016; 0.02; 0.03; 0.05 ]

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
      ("atomicity", atomicity_suite);
      ("scheduling", scheduling_suite);
    ]
