(* The simulation-testing subsystem, tested on itself:

   - scheduling policies: randomized priorities really explore different
     interleavings, and both policies are deterministic per seed;
   - decision traces: record/replay reproduces a run event-for-event, and
     the trace and plan codecs round-trip;
   - the explorer: >= 200 schedules on the correct protocol pass every
     auditor, and the intentionally buggy clerk (untagged blind re-Send) is
     caught and shrunk to a minimal still-failing plan;
   - the crash-site enumerator: every (site, hit) combination of the
     quickstart world recovers cleanly;
   - the HA pair: >= 200 random fault plans (primary kills, client
     partitions) pass every auditor through failover, the lag-buggy
     shipper is caught and shrunk, and killing the primary at every
     replication crash site (ship and ha prefixes) fails over cleanly;
   - the sharded world: >= 200 random fault plans (shard kills,
     client/shard and shard/shard partitions) across a mid-run shard-map
     change pass every auditor, the tag-stripping forwarder (the designed
     misroute-during-map-change anomaly) is caught and shrunk, and killing
     the reaching shard at every shard./wal./tm. crash site recovers to a
     clean audit;
   - an HA pair as a shard: >= 200 random fault plans over the sharded
     world with shard0 a synchronous HA pair pass every auditor, and
     killing the pair primary at every ship and ha crash site fails over
     cleanly;
   - the transfer chain (paper §6): E2's plans, whose crashes land while
     transfers are in flight, designed crashes inside the
     middle stage's parallel commit and in the stage queues' creation,
     >= 200 random fault plans and a sweep of every crash site, each armed
     crash firing, keep money conserved and every stage applied once;
   - the lossy network: the quickstart world dropping 8% of messages
     passes explored fault plans;
   - the whole registry: in every scenario, arming the first hit of every
     probed crash site really fires the crash. *)

module Sched = Rrq_sim.Sched
module C = Rrq_check
module Obs = Rrq_obs

(* ---- scheduling policies ------------------------------------------------ *)

(* Five fibers, each yielding between appends: the execution order is the
   scheduler's choice and nothing else. *)
let interleaving policy =
  let order = ref [] in
  let s = Sched.create ~policy () in
  for i = 0 to 4 do
    ignore
      (Sched.spawn s ~name:(Printf.sprintf "f%d" i) (fun () ->
           for step = 0 to 2 do
             order := (i, step) :: !order;
             Sched.yield ()
           done))
  done;
  Sched.run s;
  (List.rev !order, s)

let test_policies () =
  let fifo, _ = interleaving Sched.Fifo in
  let rand1, _ = interleaving (Sched.Random_priority 7) in
  let rand1', _ = interleaving (Sched.Random_priority 7) in
  let rand2, _ = interleaving (Sched.Random_priority 8) in
  Alcotest.(check bool)
    "random priorities change the interleaving" true (fifo <> rand1);
  Alcotest.(check bool) "same seed, same interleaving" true (rand1 = rand1');
  Alcotest.(check bool)
    "different seeds explore differently" true (rand1 <> rand2)

let test_trace_replay () =
  let original, s = interleaving (Sched.Random_priority 42) in
  Alcotest.(check bool) "trace not truncated" false (Sched.trace_truncated s);
  let trace = Sched.trace s in
  Alcotest.(check bool) "trace is non-trivial" true (Array.length trace > 10);
  let replayed, s' = interleaving (Sched.Replay trace) in
  Alcotest.(check bool)
    "replay reproduces the event order" true (original = replayed);
  Alcotest.(check string) "replay re-records the same trace"
    (Sched.trace_to_string trace)
    (Sched.trace_to_string (Sched.trace s'))

let test_trace_codec () =
  List.iter
    (fun d ->
      Alcotest.(check string) "decision roundtrip"
        (Sched.decision_to_string d)
        (Sched.decision_to_string
           (Sched.decision_of_string (Sched.decision_to_string d))))
    [ Sched.Pick 0; Sched.Pick 31; Sched.Timer_fired 17; Sched.Fault "crash b" ];
  let _, s = interleaving (Sched.Random_priority 3) in
  Sched.note_fault s "synthetic";
  let t = Sched.trace s in
  Alcotest.(check string) "trace roundtrip" (Sched.trace_to_string t)
    (Sched.trace_to_string (Sched.trace_of_string (Sched.trace_to_string t)))

(* A livelock's step-limit failure must name the spinning fibers and the
   recent decisions, so it is diagnosable from test output alone. *)
let test_step_limit_diagnostics () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s ~name:"spinner-a" (fun () ->
         while true do
           Sched.yield ()
         done));
  ignore
    (Sched.spawn s ~name:"spinner-b" (fun () ->
         while true do
           Sched.yield ()
         done));
  match Sched.run ~max_steps:200 s with
  | () -> Alcotest.fail "expected a step-limit failure"
  | exception Failure msg ->
    let contains needle =
      let nl = String.length needle and ml = String.length msg in
      let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the live fibers" true (contains "spinner-a");
    Alcotest.(check bool) "both of them" true (contains "spinner-b");
    Alcotest.(check bool) "shows recent decisions" true (contains "decisions")

(* The recorded trace of one fixed crash plan under randomized priorities,
   pinned by digest: picks above 0, timers firing out of seq order and
   fault notes spliced mid-run. A change to how the scheduler stores its
   trace must leave this string byte-identical. Only timers that fire are
   recorded: the 14 timeouts this run's wake-ups cancel leave no entry. *)
let test_golden_trace_digest () =
  let plan = C.Plan.of_string "seed=3 policy=random:77 crash:backend@0.05+0.5" in
  let o = C.Scenario.run C.Scenario.quickstart plan in
  let s = Sched.trace_to_string o.C.Scenario.trace in
  Alcotest.(check int) "decisions" 177 (Array.length o.C.Scenario.trace);
  Alcotest.(check bool) "has a crash note" true
    (Array.exists (( = ) (Sched.Fault "crash backend")) o.C.Scenario.trace);
  Alcotest.(check string) "trace digest" "f818610aec7c849bac3df17a48b046aa"
    (Digest.to_hex (Digest.string s))

(* The same plan's picks and fault notes, its timer firings dropped: what a
   replay follows. A change to which timers fire (or get recorded) must
   leave every pick where it was. *)
let test_pick_digest () =
  let plan = C.Plan.of_string "seed=3 policy=random:77 crash:backend@0.05+0.5" in
  let o = C.Scenario.run C.Scenario.quickstart plan in
  let picks =
    List.filter
      (function Sched.Timer_fired _ -> false | Sched.Pick _ | Sched.Fault _ -> true)
      (Array.to_list o.C.Scenario.trace)
  in
  Alcotest.(check string) "pick digest" "b7ee6ac719c0a859fb0f884d01cc2254"
    (Digest.to_hex (Digest.string (Sched.trace_to_string (Array.of_list picks))))

(* ---- plan codec --------------------------------------------------------- *)

let profile = C.Scenario.quickstart.C.Scenario.profile

let test_plan_codec () =
  for seed = 1 to 50 do
    let plan = C.Plan.random ~seed ~profile in
    let back = C.Plan.of_string (C.Plan.to_string plan) in
    Alcotest.(check string)
      (Printf.sprintf "plan %d roundtrips" seed)
      (C.Plan.to_string plan) (C.Plan.to_string back);
    Alcotest.(check bool)
      (Printf.sprintf "plan %d equal after roundtrip" seed)
      true (plan = back)
  done

(* ---- the explorer on the correct protocol ------------------------------- *)

let test_explore_correct () =
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.quickstart in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* ---- the explorer on the buggy clerk ------------------------------------ *)

let test_explore_buggy_and_shrink () =
  let report = C.Explore.run ~budget:100 ~seed:1 C.Scenario.buggy_clerk in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "explorer failed to catch the buggy clerk"
  in
  Alcotest.(check bool) "the failing outcome has findings" true
    (f.C.Explore.outcome.C.Scenario.findings <> []);
  let minimal = C.Explore.minimal_plan f in
  Alcotest.(check bool) "shrunk plan is no larger" true
    (List.length minimal.C.Plan.faults <= List.length f.C.Explore.plan.C.Plan.faults);
  (* The minimized plan must still fail... *)
  let o = C.Scenario.run C.Scenario.buggy_clerk minimal in
  Alcotest.(check bool) "minimal plan still fails" true (C.Scenario.failed o);
  (* ... and be minimal under single-fault removal. *)
  List.iteri
    (fun i _ ->
      let without =
        {
          minimal with
          C.Plan.faults = List.filteri (fun j _ -> j <> i) minimal.C.Plan.faults;
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "dropping fault %d makes it pass" i)
        false
        (C.Scenario.failed (C.Scenario.run C.Scenario.buggy_clerk without)))
    minimal.C.Plan.faults;
  (* The printed repro must parse back to the minimal plan. *)
  let line = C.Explore.repro_line "buggy" minimal in
  Alcotest.(check bool) "repro line carries the plan" true
    (String.length line > String.length (C.Plan.to_string minimal))

(* A scenario run is a pure function of its plan: same plan, same outcome,
   same decision trace — on a request world, the transfer chain and the
   lossy network, whose drops come from the plan's seed. *)
let test_outcome_determinism () =
  List.iter
    (fun scenario ->
      let name = scenario.C.Scenario.name in
      let plan = C.Explore.plan_of_index scenario ~seed:5 3 in
      let o1 = C.Scenario.run scenario plan in
      let o2 = C.Scenario.run scenario plan in
      Alcotest.(check string) (name ^ ": same findings")
        (C.Audit.findings_to_string o1.C.Scenario.findings)
        (C.Audit.findings_to_string o2.C.Scenario.findings);
      Alcotest.(check int) (name ^ ": same replies") o1.C.Scenario.replies
        o2.C.Scenario.replies;
      Alcotest.(check (list (pair string int))) (name ^ ": same totals")
        o1.C.Scenario.totals o2.C.Scenario.totals;
      Alcotest.(check (float 0.0)) (name ^ ": same virtual time")
        o1.C.Scenario.virtual_time o2.C.Scenario.virtual_time;
      Alcotest.(check string) (name ^ ": same decision trace")
        (Sched.trace_to_string o1.C.Scenario.trace)
        (Sched.trace_to_string o2.C.Scenario.trace))
    [ C.Scenario.quickstart; C.Scenario.chain; C.Scenario.quickstart_lossy ]

(* Replaying a recorded trace through the Replay policy reproduces the
   identical audit outcome — on a failing schedule of the buggy clerk. *)
let test_replay_reproduces_failure () =
  let report = C.Explore.run ~budget:100 ~seed:1 ~shrink_failures:false C.Scenario.buggy_clerk in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "no failure to replay"
  in
  let o1 = f.C.Explore.outcome in
  Alcotest.(check bool) "trace replayable" false o1.C.Scenario.trace_truncated;
  let o2 =
    C.Scenario.run ~policy:(Sched.Replay o1.C.Scenario.trace)
      C.Scenario.buggy_clerk f.C.Explore.plan
  in
  Alcotest.(check string) "replay reproduces the audit result"
    (C.Audit.findings_to_string o1.C.Scenario.findings)
    (C.Audit.findings_to_string o2.C.Scenario.findings);
  Alcotest.(check int) "replay reproduces the replies" o1.C.Scenario.replies
    o2.C.Scenario.replies;
  Alcotest.(check string) "replay re-records the identical trace"
    (Sched.trace_to_string o1.C.Scenario.trace)
    (Sched.trace_to_string o2.C.Scenario.trace)

(* ---- the crash-site enumerator ------------------------------------------ *)

let starts_with prefix site =
  String.length site >= String.length prefix
  && String.sub site 0 (String.length prefix) = prefix

(* [Scenario.sweep], with the failed audits as strings. *)
let sweep ?only ?victim ~recover_after scenario =
  let visited, crashes = C.Scenario.sweep ?only ?victim ~recover_after scenario in
  ( visited,
    List.filter_map
      (fun (c : C.Scenario.crash) ->
        if c.findings = [] then None
        else
          Some
            (Printf.sprintf "%s hit %d: %s" c.site c.hit
               (C.Audit.findings_to_string c.findings)))
      crashes )

let combos visited = List.fold_left (fun a (_, n) -> a + n) 0 visited

let test_crash_site_sweep () =
  let visited, failures = sweep ~recover_after:1.0 C.Scenario.quickstart in
  let has prefix = List.exists (fun (site, _) -> starts_with prefix site) visited in
  Alcotest.(check bool) "probe found WAL sync sites" true (has "wal.sync:");
  Alcotest.(check bool) "probe found 2PC decision sites" true (has "tm.");
  Alcotest.(check bool) "probe found clerk sites" true (has "clerk.");
  Alcotest.(check bool) "probe found the server commit site" true
    (has "server.handled:req");
  let combos = combos visited in
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial site space (%d combos)" combos)
    true (combos >= 50);
  Alcotest.(check (list string)) "every crash point recovered cleanly" []
    failures

(* ---- the HA pair under the explorer and the crash-site enumerator -------- *)

(* The explorer over the HA scenario: random plans drawn from a fault space
   that kills the primary and partitions it from the client. Synchronous
   shipping gates every reply on the backup's ack, so every schedule must
   pass all five auditors through whatever failover the plan provokes. *)
let test_ha_explore () =
  (match C.Scenario.by_name "ha" with
  | Some s -> Alcotest.(check string) "registered" "ha" s.C.Scenario.name
  | None -> Alcotest.fail "ha not in the scenario registry");
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.ha in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* The lag-buggy shipper ([Lagged 1.0]: replies released up to a second
   ahead of the backup). Fault-free it passes; the explorer must catch a
   primary kill inside the lag window — the promoted backup either never
   saw an acknowledged conversation or re-runs one whose reply already
   escaped — and ddmin must shrink the plan to one that still fails. *)
let test_ha_lagged_caught_and_shrunk () =
  (match C.Scenario.by_name "ha-lagged" with
  | Some s -> Alcotest.(check string) "registered" "ha-lagged" s.C.Scenario.name
  | None -> Alcotest.fail "ha-lagged not in the scenario registry");
  let clean = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  Alcotest.(check bool) "fault-free lagged run passes" false
    (C.Scenario.failed (C.Scenario.run C.Scenario.ha_lagged clean));
  let report = C.Explore.run ~budget:100 ~seed:1 C.Scenario.ha_lagged in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "explorer failed to catch the lagged shipper"
  in
  Alcotest.(check bool) "the failing outcome has findings" true
    (f.C.Explore.outcome.C.Scenario.findings <> []);
  let minimal = C.Explore.minimal_plan f in
  Alcotest.(check bool) "shrunk plan is no larger" true
    (List.length minimal.C.Plan.faults
    <= List.length f.C.Explore.plan.C.Plan.faults);
  let o = C.Scenario.run C.Scenario.ha_lagged minimal in
  Alcotest.(check bool) "minimal plan still fails" true (C.Scenario.failed o);
  let line = C.Explore.repro_line "ha-lagged" minimal in
  Alcotest.(check bool) "repro line carries the plan" true
    (String.length line > String.length (C.Plan.to_string minimal))

(* A designed plan for the standby-ahead corner. At t=1.097 the primary
   ships a round whose local sync ends at t=1.101; the crash at t=1.1 lands
   between the two, so the standby applies records the primary's disk
   loses. The primary is back at t=1.13 and asks the standby its role, which
   unsyncs it; the second crash (t=1.14) comes before the resync's install.
   The standby must wait six seconds for the primary rather than promote
   with records the primary never had, and the returning primary's resync
   replaces them. *)
let test_ha_standby_ahead_plan () =
  let plan =
    C.Plan.make ~seed:0 ~policy:`Fifo
      ~faults:
        [
          C.Plan.Crash { node = "primary"; at = 1.1; recover_after = 0.03 };
          C.Plan.Crash { node = "primary"; at = 1.14; recover_after = 6.0 };
        ]
  in
  let o = C.Scenario.run C.Scenario.ha plan in
  Alcotest.(check string) "auditors" "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings);
  Alcotest.(check int) "every reply delivered" o.C.Scenario.requests
    o.C.Scenario.replies;
  Alcotest.(check int) "the standby never promoted" 0 o.C.Scenario.failovers

(* Crash-site sweep over the replication machinery: kill the primary at
   every reach of every ship- and ha-prefixed site the probe discovers (the probe
   plan itself kills the primary at t=2, so the heartbeat-miss/promote
   path is on the map). Whatever the timing — batch shipped but unacked,
   ack in flight, mid-promotion — the audited outcome must be clean. *)
let ha_swept_prefixes = [ "ship."; "ha." ]

let test_ha_crash_site_sweep () =
  let visited, failures =
    sweep
      ~only:(fun site -> List.exists (fun p -> starts_with p site) ha_swept_prefixes)
      ~victim:"primary" ~recover_after:4.0 C.Scenario.ha
  in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "probe reaches %s" site)
        true (List.mem_assoc site visited))
    [ "ship.sent"; "ship.applied"; "ha.heartbeat_miss"; "ha.promote" ];
  (* One shipped stream per node (the node log): a commit is one ship
     round. *)
  let combos = combos visited in
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial replication site space (%d combos)"
       combos)
    true (combos >= 30);
  Alcotest.(check (list string))
    "every replication crash point failed over cleanly" [] failures

(* ---- the sharded multi-repository world --------------------------------- *)

(* The explorer over the sharded scenario: three shard repositories, a
   mid-run map change that moves every client's key off shard0, forwarding,
   registration pulls and cross-shard 2PC reply enqueues — under random
   crash/partition plans that kill any shard and cut shard/shard links
   (including mid-2PC). Every schedule must pass exactly-once, conservation
   summed across shards, queue-integrity and no-in-doubt. *)
let test_sharded_explore () =
  (match C.Scenario.by_name "sharded" with
  | Some s -> Alcotest.(check string) "registered" "sharded" s.C.Scenario.name
  | None -> Alcotest.fail "sharded not in the scenario registry");
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.sharded in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* A designed plan for the parallel commit's participant memory. Around
   t=1.34 shard1 commits two cross-shard replies: each staged record is
   forced and each participant votes yes and takes the commit, but the
   second decision record is appended without a force and is still
   unforced at t=1.5 (the settle round that would force it comes half a
   second after the commit), when shard1 dies. Its recovery finds the
   staged record alone and asks the participant, which remembers the
   commit: recovery commits, the request is not run again and its reply
   arrives once. *)
let test_sharded_unsettled_decision_plan () =
  let plan =
    C.Plan.make ~seed:0 ~policy:`Fifo
      ~faults:[ C.Plan.Crash { node = "shard1"; at = 1.5; recover_after = 1.0 } ]
  in
  let o = C.Scenario.run C.Scenario.sharded plan in
  Alcotest.(check string) "auditors" "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings);
  Alcotest.(check int) "every reply delivered" o.C.Scenario.requests
    o.C.Scenario.replies

(* The designed misroute-during-map-change anomaly: forwarders that strip
   registration tags. Fault-free every request is forwarded at most once and
   nothing retries, so it passes; a fault that costs an acknowledgment
   around the map change makes the stale-pinned retry execute a second,
   untagged copy at the new owner. The explorer must catch the duplicate
   and ddmin must shrink the plan to a still-failing core. *)
let test_sharded_anomaly_caught_and_shrunk () =
  (match C.Scenario.by_name "sharded-buggy" with
  | Some s ->
    Alcotest.(check string) "registered" "sharded-buggy" s.C.Scenario.name
  | None -> Alcotest.fail "sharded-buggy not in the scenario registry");
  let clean = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  Alcotest.(check bool) "fault-free buggy run passes" false
    (C.Scenario.failed (C.Scenario.run C.Scenario.sharded_buggy clean));
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.sharded_buggy in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "explorer failed to catch the untagging forwarder"
  in
  Alcotest.(check bool) "the failing outcome has findings" true
    (f.C.Explore.outcome.C.Scenario.findings <> []);
  let minimal = C.Explore.minimal_plan f in
  Alcotest.(check bool) "shrunk plan is no larger" true
    (List.length minimal.C.Plan.faults
    <= List.length f.C.Explore.plan.C.Plan.faults);
  let o = C.Scenario.run C.Scenario.sharded_buggy minimal in
  Alcotest.(check bool) "minimal plan still fails" true (C.Scenario.failed o);
  (* ... and is minimal under single-fault removal. *)
  List.iteri
    (fun i _ ->
      let without =
        {
          minimal with
          C.Plan.faults = List.filteri (fun j _ -> j <> i) minimal.C.Plan.faults;
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "dropping fault %d makes it pass" i)
        false
        (C.Scenario.failed (C.Scenario.run C.Scenario.sharded_buggy without)))
    minimal.C.Plan.faults;
  let line = C.Explore.repro_line "sharded-buggy" minimal in
  Alcotest.(check bool) "repro line carries the plan" true
    (String.length line > String.length (C.Plan.to_string minimal))

(* The designed fence anomaly: clerks whose Sends never fence their lazy
   Receive, with reply queues pinned off their clients' request shards.
   Fault-free it passes. A crash of a reply shard after the next Send was
   acknowledged, before another commit forced that shard's log, gives a
   received reply back, which reply-delivery flags. The explorer must
   catch it and ddmin shrink it; the shrunk plan is harmless to the fenced
   clerks of the same world ([sharded_slow]). *)
let test_sharded_unfenced_caught_and_shrunk () =
  let clean = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  Alcotest.(check bool) "fault-free unfenced run passes" false
    (C.Scenario.failed (C.Scenario.run C.Scenario.sharded_unfenced clean));
  let report = C.Explore.run ~budget:200 ~seed:7 C.Scenario.sharded_unfenced in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "explorer failed to catch the unfenced Receive"
  in
  Alcotest.(check bool) "reply-delivery caught it" true
    (List.exists
       (fun (x : C.Audit.finding) -> x.C.Audit.auditor = "reply-delivery")
       f.C.Explore.outcome.C.Scenario.findings);
  let minimal = C.Explore.minimal_plan f in
  Alcotest.(check bool) "shrunk to fewer faults" true
    (List.length minimal.C.Plan.faults < List.length f.C.Explore.plan.C.Plan.faults);
  Alcotest.(check bool) "minimal plan still fails" true
    (C.Scenario.failed (C.Scenario.run C.Scenario.sharded_unfenced minimal));
  Alcotest.(check string) "the fenced clerks pass it" "all auditors passed"
    (C.Audit.findings_to_string
       (C.Scenario.run C.Scenario.sharded_slow minimal).C.Scenario.findings)

(* Crash-site sweep across the routing machinery AND each shard's own WAL
   and 2PC sites (their names embed the shard node, so the victim is the
   shard that reached the site). The fault-free probe still performs the
   map change, so shard.forward (stale-pin relays), shard.map_install and
   cross-shard tm.staged/tm.prepared/tm.decided are all on the map. *)
(* A designed plan for a lock taken under a force-aborted transaction.
   shard1 runs s2-r1 and holds the counting handler's "total" lock while
   the reply enqueue waits on the dead shard0; s1-r1's transaction waits
   for that lock. At t=6 the janitor aborts both: the first abort's release
   grants the lock to the second, the second's abort releases it again,
   and its owner, woken by the grant, takes the lock anew for its read.
   When its own abort found the transaction already aborted and released
   nothing, that lock stayed held for good, every later try of both
   requests stalled on it, and both were lost. *)
let test_sharded_lock_after_abort_plan () =
  let plan =
    C.Plan.make ~seed:83011 ~policy:`Fifo
      ~faults:
        [
          C.Plan.Crash { node = "shard0"; at = 1.31; recover_after = 3.32 };
          C.Plan.Crash { node = "shard2"; at = 3.55; recover_after = 3.08 };
        ]
  in
  let o = C.Scenario.run C.Scenario.sharded plan in
  Alcotest.(check string) "auditors" "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings);
  Alcotest.(check int) "every reply delivered" o.C.Scenario.requests
    o.C.Scenario.replies

let shard_swept_prefixes = [ "shard."; "wal."; "tm." ]

let test_sharded_crash_site_sweep () =
  let visited, failures =
    sweep
      ~only:(fun site -> List.exists (fun p -> starts_with p site) shard_swept_prefixes)
      ~recover_after:1.0 C.Scenario.sharded
  in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "probe reaches %s" site)
        true (List.mem_assoc site visited))
    [
      "shard.route:shard0";
      "shard.route:shard1";
      "shard.route:shard2";
      "shard.forward:shard0";
      "shard.map_install:shard0";
      "shard.map_install:shard1";
      "shard.map_install:shard2";
      "tm.staged:shard1";
      "tm.prepared:shard1";
      "wal.sync:shard2.log";
    ];
  let combos = combos visited in
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial shard site space (%d combos)" combos)
    true (combos >= 100);
  Alcotest.(check (list string)) "every shard crash point recovered cleanly" []
    failures

(* ---- an HA pair as one shard -------------------------------------------- *)

(* The sharded world with shard0 a synchronous HA pair whose standby the
   map lists as shard0's backup candidate. Random plans kill the pair
   primary and the plain shards around the map change: a failover must
   compose with forwarding, registration pulls and cross-shard 2PC — the
   servers on shard1/shard2 must reach reply queues on the promoted
   standby. *)
let test_sharded_ha_explore () =
  (match C.Scenario.by_name "sharded-ha" with
  | Some s -> Alcotest.(check string) "registered" "sharded-ha" s.C.Scenario.name
  | None -> Alcotest.fail "sharded-ha not in the scenario registry");
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.sharded_ha in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* A designed plan for a janitor abort racing a commit. With shard0 down
   from 0.57 to 1.76 and shard1 from 1.24 to 3.16, a server transaction on
   the recovered shard0 waits on a lock held by one stuck calling the dead
   shard1, and both go stale. The janitor aborts both; while the second's
   abort record is being forced, its owner (released by the first's
   abort) commits without the dequeue the janitor undid, and the request
   runs twice. The owner must hear of the abort before the janitor
   yields. *)
let test_sharded_ha_janitor_race_plan () =
  let plan =
    C.Plan.make ~seed:125017 ~policy:`Fifo
      ~faults:
        [
          C.Plan.Crash { node = "shard0"; at = 0.57; recover_after = 1.19 };
          C.Plan.Crash { node = "shard1"; at = 1.24; recover_after = 1.92 };
        ]
  in
  let o = C.Scenario.run C.Scenario.sharded_ha plan in
  Alcotest.(check string) "auditors" "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings)

(* A designed plan for a stall that is not a failed delivery. shard0's pair
   fails over to its standby at 0.62, and shard1, where s0-r1's reply
   goes, is down from 1.91 to 3.73 and from 5.94 to 9.37. The standby's
   server transactions for s0-r1 stall on calls to the dead shard, and the
   janitor (3 s stale timeout) aborts them twice; a server abort follows.
   Counted as three failed deliveries, those returns reached the retry
   limit and moved the request to the error queue unprocessed, so no reply
   ever came. A janitor abort must return the request without a bump. *)
let test_sharded_ha_stall_plan () =
  let plan =
    C.Plan.make ~seed:304037 ~policy:`Fifo
      ~faults:
        [
          C.Plan.Crash { node = "shard0"; at = 0.62; recover_after = 2.67 };
          C.Plan.Crash { node = "shard1"; at = 1.91; recover_after = 1.82 };
          C.Plan.Crash { node = "shard1"; at = 5.94; recover_after = 3.43 };
        ]
  in
  let o = C.Scenario.run C.Scenario.sharded_ha plan in
  Alcotest.(check string) "auditors" "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings);
  Alcotest.(check int) "every reply delivered" o.C.Scenario.requests
    o.C.Scenario.replies

(* Kill the pair primary at every reach of every ship and ha crash site
   (the probe plan itself kills it at t=2, so promotion is on the map), and
   wherever a parallel commit's staged record is durable with its votes
   outstanding: the pair primary's own (its promoted standby resolves the
   staged record) and the other shards' (the pair primary is their
   participant). *)
let test_sharded_ha_crash_site_sweep () =
  let visited, failures =
    sweep
      ~only:(fun site ->
        List.exists (fun p -> starts_with p site) ("tm.staged:" :: ha_swept_prefixes))
      ~victim:"shard0" ~recover_after:4.0 C.Scenario.sharded_ha
  in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "probe reaches %s" site)
        true (List.mem_assoc site visited))
    [
      "ship.sent";
      "ship.applied";
      "ha.heartbeat_miss";
      "ha.promote";
      "tm.staged:shard0";
      "tm.staged:shard1";
    ];
  let combos = combos visited in
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial replication site space (%d combos)"
       combos)
    true (combos >= 30);
  Alcotest.(check (list string))
    "every replication crash point of the HA shard failed over cleanly" []
    failures

(* ---- the §6 transfer chain ---------------------------------------------- *)

(* A clean chain run: every auditor passed, every transfer replied, and the
   audited totals are the expected balances. *)
let check_transfers (o : C.Scenario.outcome) =
  Alcotest.(check string) "auditors" "all auditors passed"
    (C.Audit.findings_to_string o.findings);
  Alcotest.(check int) "every transfer replied" o.requests o.replies;
  Alcotest.(check (list (pair string int))) "balances"
    [ ("src", 600); ("dst", 400); ("cleared", 4) ]
    o.totals

(* E2's rows: fault-free, and each of the three banks crashed mid-chain and
   restarted 3 s later. *)
let e2_rows = lazy (Rrq_harness.E_chain.run_crash_matrix ())

let test_chain_e2_plans () =
  List.iter (fun (_, o) -> check_transfers o) (Lazy.force e2_rows)

(* A crash that lands after every transfer finished tests recovery, not a
   broken chain: each of E2's crashes must delay the run. *)
let test_chain_e2_crashes_in_flight () =
  match Lazy.force e2_rows with
  | ("none", (clean : C.Scenario.outcome)) :: crashed ->
    List.iter
      (fun (site, (o : C.Scenario.outcome)) ->
        Alcotest.(check bool)
          (Printf.sprintf "crash of %s ends at t=%.1f, after the fault-free t=%.1f"
             site o.virtual_time clean.virtual_time)
          true
          (o.virtual_time > clean.virtual_time))
      crashed
  | _ -> Alcotest.fail "E2's first row is not the fault-free run"

(* A designed crash inside the middle stage's parallel commit. bankB's
   credit transaction forwards the transfer to the clearing house's queue,
   so it forces a staged record while its prepare to clearing is in
   flight; bankB dies once the first such record is durable. Its recovery
   must settle the staged record with its participant, so the credit is
   neither lost nor applied twice. *)
let test_chain_staged_crash () =
  let site = "tm.staged:bankB" in
  let o = C.Scenario.crash_at ~site ~hit:1 ~recover_after:1.0 C.Scenario.chain in
  Alcotest.(check bool) "the armed crash fired" true (C.Scenario.crash_fired o ~site);
  check_transfers o

(* A designed crash for the stage queues. bankB dies in the sync that would
   make its "credit" queue durable, while the pipeline is installed. Its
   stage server restarts with the site, and its queue must be there too:
   when the pipeline created its queues only once, the restarted server
   failed on a missing queue. *)
let test_chain_queue_creation_crash () =
  let site = "wal.sync:bankB.log" in
  let o = C.Scenario.crash_at ~site ~hit:5 ~recover_after:1.0 C.Scenario.chain in
  Alcotest.(check bool) "the armed crash fired" true (C.Scenario.crash_fired o ~site);
  check_transfers o

let test_chain_explore () =
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.chain in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* Kill the reaching bank at every reach of every crash site of the chain:
   each stage's WAL syncs, 2PC steps and parallel-commit staging, and the
   server and clerk steps. Every armed crash must fire and recover to a
   clean audit. *)
let test_chain_crash_site_sweep () =
  let visited, crashes = C.Scenario.sweep ~recover_after:1.0 C.Scenario.chain in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "probe reaches %s" site)
        true (List.mem_assoc site visited))
    [ "server.handled:credit"; "tm.staged:bankA"; "tm.staged:bankB"; "tm.prepared:clearing" ];
  Alcotest.(check int) "every armed crash fired" (combos visited)
    (List.length (List.filter (fun (c : C.Scenario.crash) -> c.fired) crashes));
  Alcotest.(check (list string)) "every chain crash point recovered cleanly" []
    (List.filter_map
       (fun (c : C.Scenario.crash) ->
         if c.findings = [] then None
         else
           Some
             (Printf.sprintf "%s hit %d: %s" c.site c.hit
                (C.Audit.findings_to_string c.findings)))
       crashes)

(* ---- the lossy network ---------------------------------------------------- *)

(* The quickstart world with every message dropped with probability 0.08,
   under explored crash and partition plans. *)
let test_lossy_explore budget () =
  let report = C.Explore.run ~budget ~seed:1 C.Scenario.quickstart_lossy in
  Alcotest.(check int) "explored the whole budget" budget report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" budget report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* ---- every scenario: armed crashes fire --------------------------------- *)

(* A sweep that arms a crash the run never reaches proves nothing. In every
   registered scenario, arming the first hit of each probed site must fire:
   the re-run's trace carries the crash point's fault note. *)
let test_every_armed_crash_fires () =
  List.iter
    (fun scenario ->
      List.iter
        (fun (site, _) ->
          let o = C.Scenario.crash_at ~site ~hit:1 ~recover_after:1.0 scenario in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s hit 1 fires" scenario.C.Scenario.name site)
            true
            (C.Scenario.crash_fired o ~site))
        (C.Scenario.crash_sites scenario))
    C.Scenario.all

(* ---- recorded runs: the observability layer under the checker ----------- *)

(* A recorded fault-free run must produce a non-empty trace that the
   trace-based exactly-once auditor validates from events alone (it joins
   the outcome's findings in [run_recorded]). *)
let test_recorded_fault_free () =
  let plan = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  let r = C.Scenario.run_recorded C.Scenario.quickstart plan in
  let o = r.C.Scenario.rec_outcome in
  Alcotest.(check string) "all auditors passed, including exactly-once-trace"
    "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings);
  Alcotest.(check bool) "trace dump is non-empty" true
    (String.length r.C.Scenario.rec_trace > 0);
  (* Every dumped line is a well-formed JSON-lines record. *)
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' r.C.Scenario.rec_trace)
  in
  Alcotest.(check bool) "a real run emits many events" true
    (List.length lines > 50);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  (* The registry snapshot carries the headline counters. *)
  let m = r.C.Scenario.rec_metrics in
  Alcotest.(check bool) "counted client requests" true
    (Obs.Metrics.find_counter m "qm.enqueues:qm@backend" >= 4);
  Alcotest.(check bool) "counted transaction commits" true
    (Obs.Metrics.find_counter m "tm.commits:backend" >= 4)

(* A fault-free chain run passes the trace auditor too: each stage runs
   the transfer's rid once from its own queue. *)
let test_recorded_chain () =
  let plan = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  let r = C.Scenario.run_recorded C.Scenario.chain plan in
  Alcotest.(check string) "all auditors passed, including exactly-once-trace"
    "all auditors passed"
    (C.Audit.findings_to_string r.C.Scenario.rec_outcome.C.Scenario.findings)

(* Recording is passive: the same fault plan recorded twice yields
   byte-identical metric and trace dumps — on a faulty schedule too. *)
let test_recorded_determinism () =
  let plans =
    C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[]
    :: List.map (fun seed -> C.Plan.random ~seed ~profile) [ 3; 11 ]
  in
  List.iter
    (fun plan ->
      let r1 = C.Scenario.run_recorded C.Scenario.quickstart plan in
      let r2 = C.Scenario.run_recorded C.Scenario.quickstart plan in
      let label = C.Plan.to_string plan in
      Alcotest.(check string)
        (Printf.sprintf "byte-identical trace dump [%s]" label)
        r1.C.Scenario.rec_trace r2.C.Scenario.rec_trace;
      Alcotest.(check bool)
        (Printf.sprintf "trace non-empty [%s]" label)
        true
        (String.length r1.C.Scenario.rec_trace > 0);
      Alcotest.(check string)
        (Printf.sprintf "byte-identical metrics JSON [%s]" label)
        (Obs.Metrics.to_json r1.C.Scenario.rec_metrics)
        (Obs.Metrics.to_json r2.C.Scenario.rec_metrics))
    plans

(* Recording must not perturb the schedule: the un-recorded run of the
   same plan takes the identical decision sequence. *)
let test_recording_is_passive () =
  let plan = C.Plan.random ~seed:7 ~profile in
  let bare = C.Scenario.run C.Scenario.quickstart plan in
  let recorded = C.Scenario.run_recorded C.Scenario.quickstart plan in
  Alcotest.(check string) "same decision trace with recording on"
    (Sched.trace_to_string bare.C.Scenario.trace)
    (Sched.trace_to_string recorded.C.Scenario.rec_outcome.C.Scenario.trace);
  Alcotest.(check int) "same replies"
    bare.C.Scenario.replies
    recorded.C.Scenario.rec_outcome.C.Scenario.replies;
  (* The commit-redelivery gauge is among what it records: no decision is
     left pending at quiescence. *)
  let m = recorded.C.Scenario.rec_metrics in
  Alcotest.(check (option (float 0.0))) "tm.pending recorded, drained"
    (Some 0.0)
    (List.assoc_opt "tm.pending:backend" m.Obs.Metrics.s_gauges)

(* Recording must not change a verdict. On this HA plan the primary
   crashes while a committer of a durable transaction is parked in the
   Sync-mode ship wait, before its commit event: the trace alone reads that
   request as lost, so the trace auditor must stay off for plans with
   crashes and the recorded verdict must equal the unrecorded one. *)
let test_recorded_crash_verdict () =
  let plan =
    C.Plan.of_string
      "seed=54 policy=fifo crash:primary@1.17+1.24 \
       part:client/primary@2.03+2.60 part:client/primary@2.19+1.88"
  in
  let bare = C.Scenario.run C.Scenario.ha plan in
  let recorded = C.Scenario.run_recorded C.Scenario.ha plan in
  Alcotest.(check string) "unrecorded verdict" "all auditors passed"
    (C.Audit.findings_to_string bare.C.Scenario.findings);
  Alcotest.(check string) "recorded verdict equals unrecorded"
    (C.Audit.findings_to_string bare.C.Scenario.findings)
    (C.Audit.findings_to_string
       recorded.C.Scenario.rec_outcome.C.Scenario.findings)

(* The HA layer's metrics, over a failover: the primary dies at t=2 and
   the backup takes over, then resyncs the returning ex-primary. Recording
   them must not perturb the run either. *)
let test_recorded_ha_metrics () =
  let plan = C.Scenario.ha.C.Scenario.probe in
  let bare = C.Scenario.run C.Scenario.ha plan in
  let recorded = C.Scenario.run_recorded C.Scenario.ha plan in
  Alcotest.(check string) "same decision trace with recording on"
    (Sched.trace_to_string bare.C.Scenario.trace)
    (Sched.trace_to_string recorded.C.Scenario.rec_outcome.C.Scenario.trace);
  let m = recorded.C.Scenario.rec_metrics in
  let counter = Obs.Metrics.find_counter m in
  let rounds = counter "ha.ship_rounds:primary" in
  Alcotest.(check bool) "ship rounds counted" true (rounds > 0);
  let rtt = Obs.Metrics.histogram m "ha.ship_rtt_ms:primary" in
  Alcotest.(check bool) "a round trip per acknowledged round" true
    (Rrq_util.Histogram.count rtt > 0 && Rrq_util.Histogram.count rtt <= rounds);
  Alcotest.(check (float 0.0)) "no round left in flight" 0.0
    (Obs.Metrics.find_gauge m "ha.ships_in_flight:primary");
  Alcotest.(check int) "one promotion" 1 (counter "ha.promotions:backup");
  Alcotest.(check int) "the primary resynced its standby once" 1
    (counter "ha.resyncs:primary");
  Alcotest.(check int) "the promoted backup resynced the ex-primary" 1
    (counter "ha.resyncs:backup")

(* ---- property: auditors hold under arbitrary small fault schedules ------ *)

let prop_quickstart_audits_hold =
  QCheck2.Test.make ~name:"quickstart passes all auditors under random plans"
    ~count:25
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let base = C.Plan.random ~seed ~profile in
      List.for_all
        (fun policy ->
          let plan = { base with C.Plan.policy } in
          let o = C.Scenario.run C.Scenario.quickstart plan in
          if C.Scenario.failed o then
            QCheck2.Test.fail_reportf "plan %s: %s" (C.Plan.to_string plan)
              (C.Audit.findings_to_string o.C.Scenario.findings)
          else true)
        [ `Fifo; `Random (seed * 31) ])

(* ---- the reply-delivery auditor ----------------------------------------- *)

(* Queued replies are counted by their [rid] property. Under at-least-once
   reply processing ([replies_seen]) there must be exactly one reply per
   rid, by eid, received or queued: r2 has two different replies; r3 is
   received and queued again, and r6 received twice, with no crash to
   explain it (a reply seen again after its client's next Send was
   durable); r4 is received twice after one crash of its reply queue's
   node between a Receive and its fence; r7 three times after one such
   crash, which can give a reply back once; r5 has none. The crash-free
   rule ([reply_delivery]) counts copies, so it flags r4 too. *)
let test_reply_delivery_counts () =
  let detail = ref None in
  let s = Sched.create () in
  let net = Rrq_net.Net.create s (Rrq_util.Rng.create 1) in
  let site =
    Rrq_core.Site.create
      ~queues:[ ("reply.c", Rrq_qm.Qm.default_attrs) ]
      (Rrq_net.Net.make_node net "backend")
  in
  ignore
    (Sched.spawn s ~name:"main" (fun () ->
         let qm = Rrq_core.Site.qm site in
         let h, _ = Rrq_qm.Qm.register qm ~queue:"reply.c" ~registrant:"srv" ~stable:false in
         let put ?(props = []) body =
           Rrq_qm.Qm.auto_commit qm (fun id -> Rrq_qm.Qm.enqueue qm id h ~props body)
         in
         let reply rid =
           let env =
             Rrq_core.Envelope.make ~rid ~client_id:"c" ~reply_node:"backend"
               ~reply_queue:"reply.c" ~kind:"reply" "done"
           in
           put ~props:(Rrq_core.Envelope.props env) env.Rrq_core.Envelope.body
         in
         ignore (reply "r1");
         ignore (reply "r2");
         ignore (reply "r2");
         let r3 = reply "r3" in
         ignore (put "no header");
         let seen = function
           | "r3" -> [ r3 ]
           | "r4" -> [ 7L; 7L ]
           | "r6" -> [ 9L; 9L ]
           | "r7" -> [ 11L; 11L; 11L ]
           | _ -> []
         in
         let sites () = [ site ] and rids () = [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6"; "r7" ] in
         let findings auditor = C.Audit.findings_to_string (C.Audit.run [ auditor ]) in
         detail :=
           Some
             ( findings
                 (C.Audit.replies_seen ~sites ~seen
                    ~crashes:(function "r4" | "r7" -> 1 | _ -> 0)
                    ~rids),
               findings
                 (C.Audit.reply_delivery ~sites
                    ~received:(fun rid -> List.length (seen rid))
                    ~rids) )));
  Sched.run s;
  Alcotest.(check (option (pair string string))) "findings"
    (Some
       ( "reply-delivery: r2: 2 replies (received+queued); r3: one reply seen 2 \
          times (received+queued), 0 crash(es) of its reply queue's nodes \
          between a Receive and its fence; r5: no reply delivered or queued; \
          r6: one reply seen 2 times (received+queued), 0 crash(es) of its reply \
          queue's nodes between a Receive and its fence; r7: one reply seen 3 \
          times (received+queued), 1 crash(es) of its reply queue's nodes \
          between a Receive and its fence",
         "reply-delivery: r2: 2 replies (received+queued); r3: 2 replies \
          (received+queued); r4: 2 replies (received+queued); r5: no reply \
          delivered or queued; r6: 2 replies (received+queued); r7: 3 replies \
          (received+queued)" ))
    !detail

(* Request-reply matching: the auditor flags a Receive that got another
   request's reply. On quickstart, a kill of the backend at the 20th
   sync of its log undoes c0's lazy Receive of c0-r0's reply, which puts
   the reply back in the queue. A Receive that took the head of its
   reply queue would give c0-r1's Receive c0-r0's reply
   ("reply-matching: c0-r1: awaited, got the reply to c0-r0"); taking
   only the reply to its rid, it gets its own, and the given-back reply
   waits in the queue, where reply-delivery counts it as a copy seen
   once more after one crash. *)
let test_reply_matching () =
  Alcotest.(check string) "the auditor"
    "reply-matching: r2: awaited, got the reply to r1"
    (C.Audit.findings_to_string
       (C.Audit.run
          [ C.Audit.reply_matching ~answers:(fun () -> [ ("r1", "r1"); ("r2", "r1") ]) ]));
  let site = "wal.sync:backend.log" in
  let o = C.Scenario.crash_at ~site ~hit:20 ~recover_after:1.0 C.Scenario.quickstart in
  Alcotest.(check bool) "the crash fired" true (C.Scenario.crash_fired o ~site);
  Alcotest.(check string) "quickstart, killed after a Receive" "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings)

let () =
  Alcotest.run "rrq-check"
    [
      ( "sched",
        [
          Alcotest.test_case "scheduling policies" `Quick test_policies;
          Alcotest.test_case "trace record/replay" `Quick test_trace_replay;
          Alcotest.test_case "trace codec" `Quick test_trace_codec;
          Alcotest.test_case "step-limit diagnostics" `Quick
            test_step_limit_diagnostics;
          Alcotest.test_case "golden trace digest" `Quick test_golden_trace_digest;
          Alcotest.test_case "pick digest" `Quick test_pick_digest;
        ] );
      ("plan", [ Alcotest.test_case "codec roundtrip" `Quick test_plan_codec ]);
      ( "explore",
        [
          Alcotest.test_case "correct protocol: 200 schedules" `Slow
            test_explore_correct;
          Alcotest.test_case "buggy clerk caught and shrunk" `Quick
            test_explore_buggy_and_shrink;
          Alcotest.test_case "outcome determinism" `Quick
            test_outcome_determinism;
          Alcotest.test_case "trace replay reproduces failure" `Quick
            test_replay_reproduces_failure;
        ] );
      ( "crashpoints",
        [ Alcotest.test_case "exhaustive site sweep" `Slow test_crash_site_sweep ] );
      ( "ha",
        [
          Alcotest.test_case "HA explorer: 200 random fault plans" `Slow
            test_ha_explore;
          Alcotest.test_case "lag-buggy shipper caught and shrunk" `Slow
            test_ha_lagged_caught_and_shrunk;
          Alcotest.test_case "replication crash-site sweep: ship.*, ha.*"
            `Slow test_ha_crash_site_sweep;
          Alcotest.test_case "designed plan: standby ahead of its primary" `Quick
            test_ha_standby_ahead_plan;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "shard explorer: 200 random fault plans" `Slow
            test_sharded_explore;
          Alcotest.test_case "untagging forwarder caught and shrunk" `Slow
            test_sharded_anomaly_caught_and_shrunk;
          Alcotest.test_case "shard crash-site sweep: shard.*, wal.*, tm.*"
            `Slow test_sharded_crash_site_sweep;
          Alcotest.test_case "designed plan: coordinator dies before its decision is durable"
            `Quick test_sharded_unsettled_decision_plan;
          Alcotest.test_case "designed bug: an unfenced Receive is caught and shrunk"
            `Quick test_sharded_unfenced_caught_and_shrunk;
          Alcotest.test_case "designed plan: a lock taken after a force-abort is released"
            `Quick test_sharded_lock_after_abort_plan;
        ] );
      ( "sharded-ha",
        [
          Alcotest.test_case "HA shard explorer: 200 random fault plans" `Slow
            test_sharded_ha_explore;
          Alcotest.test_case "HA shard crash-site sweep: ship.*, ha.*, tm.staged:*"
            `Slow test_sharded_ha_crash_site_sweep;
          Alcotest.test_case "designed plan: janitor abort races a commit" `Quick
            test_sharded_ha_janitor_race_plan;
          Alcotest.test_case "designed plan: a stalled request is no failed delivery"
            `Quick test_sharded_ha_stall_plan;
        ] );
      ( "chain",
        [
          Alcotest.test_case "E2's four plans" `Quick test_chain_e2_plans;
          Alcotest.test_case "designed crash: middle stage's staged record" `Quick
            test_chain_staged_crash;
          Alcotest.test_case "designed crash: stage queue creation" `Quick
            test_chain_queue_creation_crash;
          Alcotest.test_case "chain explorer: 200 random fault plans" `Slow
            test_chain_explore;
          Alcotest.test_case "chain crash-site sweep: every armed crash fires" `Slow
            test_chain_crash_site_sweep;
          Alcotest.test_case "E2's crashes land mid-chain" `Quick
            test_chain_e2_crashes_in_flight;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "lossy smoke: 3 fault plans" `Quick
            (test_lossy_explore 3);
          Alcotest.test_case "lossy explorer: 200 fault plans" `Slow
            (test_lossy_explore 200);
        ] );
      ( "registry",
        [
          Alcotest.test_case "every scenario's armed crashes fire" `Slow
            test_every_armed_crash_fires;
        ] );
      ( "recorded",
        [
          Alcotest.test_case "fault-free run audited from the trace" `Quick
            test_recorded_fault_free;
          Alcotest.test_case "chain run audited from the trace" `Quick
            test_recorded_chain;
          Alcotest.test_case "byte-identical dumps per plan" `Quick
            test_recorded_determinism;
          Alcotest.test_case "recording is passive" `Quick
            test_recording_is_passive;
          Alcotest.test_case "crash plan: recorded verdict unchanged" `Quick
            test_recorded_crash_verdict;
          Alcotest.test_case "HA metrics over a failover" `Quick
            test_recorded_ha_metrics;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:true prop_quickstart_audits_hold ] );
      ( "audit",
        [
          Alcotest.test_case "reply delivery counts" `Quick test_reply_delivery_counts;
          Alcotest.test_case "reply matching" `Quick test_reply_matching;
        ] );
    ]
