(* The observability layer, tested in isolation:

   - the metrics registry: counters, gauges and sample series; snapshot,
     interval diff, lookup helpers and the two renderings (text, JSON);
   - disabled mode really is a no-op (the registry and the trace stream
     stay untouched);
   - the commit-redelivery gauge of the commit path ([tm.pending]),
     recorded when on and absent when off;
   - the trace ring buffer: bounded, wraps around dropping oldest first,
     and timestamps come from the pluggable clock;
   - the event codec: to_string/of_string round-trips every constructor,
     including field values containing the framing characters. *)

module Obs = Rrq_obs

let with_obs f =
  Obs.reset ();
  Fun.protect ~finally:Obs.disable f

(* ---- metrics registry --------------------------------------------------- *)

let test_counters_gauges () =
  with_obs (fun () ->
      Obs.Metrics.inc "a.x";
      Obs.Metrics.inc "a.x";
      Obs.Metrics.inc ~by:5 "a.y";
      Obs.Metrics.inc "b.z";
      Obs.Metrics.set_gauge "g.one" 1.5;
      Obs.Metrics.set_gauge "g.one" 2.5;
      Obs.Metrics.set_gauge "g.two" 4.0;
      Alcotest.(check int) "inc twice" 2 (Obs.Metrics.counter "a.x");
      Alcotest.(check int) "inc ~by" 5 (Obs.Metrics.counter "a.y");
      Alcotest.(check int) "absent counter is 0" 0 (Obs.Metrics.counter "nope");
      Alcotest.(check (float 0.0)) "gauge keeps last value" 2.5
        (Obs.Metrics.gauge "g.one");
      Alcotest.(check (float 0.0)) "absent gauge is 0" 0.0
        (Obs.Metrics.gauge "nope");
      Alcotest.(check int) "sum_counters by prefix" 7
        (Obs.Metrics.sum_counters ~prefix:"a.");
      Alcotest.(check (float 0.0)) "sum_gauges by prefix" 6.5
        (Obs.Metrics.sum_gauges ~prefix:"g."))

let test_snapshot_diff () =
  with_obs (fun () ->
      Obs.Metrics.inc ~by:3 "c";
      Obs.Metrics.set_gauge "g" 1.0;
      Obs.Metrics.observe "lat" 10.0;
      Obs.Metrics.observe "lat" 20.0;
      let before = Obs.Metrics.snapshot () in
      Obs.Metrics.inc ~by:4 "c";
      Obs.Metrics.inc "fresh";
      Obs.Metrics.set_gauge "g" 9.0;
      Obs.Metrics.observe "lat" 30.0;
      Obs.Metrics.observe "lat" 40.0;
      let after = Obs.Metrics.snapshot () in
      Alcotest.(check int) "snapshot is a copy" 3
        (Obs.Metrics.find_counter before "c");
      let d = Obs.Metrics.diff ~before ~after in
      Alcotest.(check int) "diff subtracts counters" 4
        (Obs.Metrics.find_counter d "c");
      Alcotest.(check int) "counter born in the interval" 1
        (Obs.Metrics.find_counter d "fresh");
      Alcotest.(check (float 0.0)) "diff keeps after's gauge" 9.0
        (Obs.Metrics.find_gauge d "g");
      let h = Obs.Metrics.histogram d "lat" in
      Alcotest.(check int) "diff slices the new samples" 2
        (Rrq_util.Histogram.count h);
      Alcotest.(check (float 0.0)) "and only those" 35.0
        (Rrq_util.Histogram.mean h);
      let full = Obs.Metrics.histogram after "lat" in
      Alcotest.(check int) "full snapshot keeps all samples" 4
        (Rrq_util.Histogram.count full);
      let empty = Obs.Metrics.histogram after "absent" in
      Alcotest.(check int) "absent series is empty" 0
        (Rrq_util.Histogram.count empty))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_renderings () =
  with_obs (fun () ->
      Obs.Metrics.inc ~by:2 "beta";
      Obs.Metrics.inc "alpha";
      Obs.Metrics.set_gauge "depth" 3.0;
      Obs.Metrics.observe "lat" 5.0;
      let snap = Obs.Metrics.snapshot () in
      (match snap.Obs.Metrics.s_counters with
      | [ ("alpha", 1); ("beta", 2) ] -> ()
      | _ -> Alcotest.fail "counters not sorted by name");
      let j = Obs.Metrics.to_json snap in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "JSON contains %s" needle)
            true (contains j needle))
        [
          {|"counters":{|};
          {|"alpha":1|};
          {|"beta":2|};
          {|"gauges":{|};
          {|"depth":3|};
          {|"histograms":{|};
          {|"lat":{"count":1|};
          {|"p95":|};
        ];
      let t = Obs.Metrics.to_text snap in
      Alcotest.(check bool) "text names the counter" true (contains t "alpha");
      Alcotest.(check bool) "text names the series" true (contains t "lat"))

let test_disabled_noop () =
  Obs.reset ();
  Obs.Metrics.inc "live";
  Obs.Trace.emit (Obs.Event.Read { qm = "q"; queue = "r"; found = true });
  Obs.disable ();
  Alcotest.(check bool) "disable turns recording off" false (Obs.enabled ());
  Obs.Metrics.inc "live";
  Obs.Metrics.inc "dead";
  Obs.Metrics.set_gauge "dead.g" 7.0;
  Obs.Metrics.observe "dead.s" 7.0;
  Obs.Trace.emit (Obs.Event.Read { qm = "q"; queue = "r"; found = false });
  Alcotest.(check int) "counter frozen while disabled" 1
    (Obs.Metrics.counter "live");
  Alcotest.(check int) "no counter created while disabled" 0
    (Obs.Metrics.counter "dead");
  Alcotest.(check (float 0.0)) "no gauge created while disabled" 0.0
    (Obs.Metrics.gauge "dead.g");
  Alcotest.(check int) "trace frozen while disabled" 1 (Obs.Trace.length ());
  Alcotest.(check int) "accumulated data stays readable" 1
    (Obs.Metrics.counter "live")

(* ---- commit-redelivery metrics ----------------------------------------- *)

module Disk = Rrq_storage.Disk
module Sched = Rrq_sim.Sched
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb

(* A two-phase commit whose second participant misses the first delivery
   keeps its decision pending; the redelivery a second later retires it. *)
let pending_run () =
  Rrq_test_support.Sim_harness.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let kvb = Kvdb.open_kv disk ~name:"kvb" in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      Kvdb.put kva id "x" "1";
      Kvdb.put kvb id "y" "2";
      Tm.join txn (Kvdb.participant kva);
      let pb = Kvdb.participant kvb in
      let missed = ref false in
      Tm.join txn
        {
          pb with
          Tm.p_commit =
            (fun id ->
              if !missed then pb.Tm.p_commit id
              else begin
                missed := true;
                false
              end);
        };
      ignore (Tm.commit tm txn);
      let pending = Obs.Metrics.gauge "tm.pending:tm1" in
      Sched.sleep 2.0;
      (pending, Tm.pending_decisions tm = []))

(* A parallel commit with a participant on a log of its own: the staged
   record, the vote and the decision are traced, the prepare round is
   measured, and the participant's memory of the commit is a gauge that
   the settle round drains. Then a second commit loses its unforced
   decision record in a crash; recovery resolves the staged record by
   asking the participant, which is traced and counted. *)
let test_parallel_commit_observed () =
  with_obs (fun () ->
      let disk = Disk.create "n1" in
      let commit tm kv =
        let txn = Tm.begin_txn tm in
        Kvdb.put kv (Tm.txn_id txn) "x" "1";
        Tm.join txn (Kvdb.participant kv);
        ignore (Tm.commit tm txn)
      in
      let remembered, drained, staged_after =
        Rrq_test_support.Sim_harness.run_fiber (fun () ->
            let tm = Tm.open_tm disk ~name:"tm1" in
            let kv = Kvdb.open_kv disk ~name:"kv" in
            commit tm kv;
            let remembered = Obs.Metrics.gauge "rm.remembered:kv" in
            Sched.sleep 1.0;
            let drained = Obs.Metrics.gauge "rm.remembered:kv" in
            commit tm kv;
            Disk.crash disk;
            let tm = Tm.open_tm disk ~name:"tm1" in
            let kv = Kvdb.open_kv disk ~name:"kv" in
            Tm.set_resolver tm (fun pname ->
                if pname = "kv" then Some (Kvdb.participant kv) else None);
            Tm.recover_pending tm;
            Sched.sleep 0.1;
            (remembered, drained, Obs.Metrics.gauge "tm.staged:tm1"))
      in
      let kinds =
        List.map
          (fun (_, e) -> List.hd (String.split_on_char '|' (Obs.Event.to_string e)))
          (Obs.Trace.events ())
      in
      let count k = List.length (List.filter (( = ) k) kinds) in
      Alcotest.(check int) "two staged records traced" 2 (count "staged");
      Alcotest.(check int) "two votes traced" 2 (count "vote");
      Alcotest.(check int) "one resolution traced" 1 (count "resolve");
      Alcotest.(check int) "resolved as a commit" 1
        (Obs.Metrics.counter "tm.staged_resolved.commit:tm1");
      Alcotest.(check int) "no resolution aborted" 0
        (Obs.Metrics.counter "tm.staged_resolved.abort:tm1");
      Alcotest.(check (float 0.0)) "nothing left staged" 0.0 staged_after;
      Alcotest.(check (float 0.0)) "the participant remembers the commit" 1.0 remembered;
      Alcotest.(check (float 0.0)) "and forgets it once settled" 0.0 drained;
      Alcotest.(check int) "prepare rounds measured" 2
        (Rrq_util.Histogram.count
           (Obs.Metrics.histogram (Obs.Metrics.snapshot ()) "tm.prepare.latency:tm1")))

let test_pending_metrics () =
  with_obs (fun () ->
      let pending, retired = pending_run () in
      Alcotest.(check (float 0.0)) "tm.pending while a delivery is missing"
        1.0 pending;
      Alcotest.(check bool) "retired by the redelivery" true retired;
      Alcotest.(check (float 0.0)) "tm.pending drained" 0.0
        (Obs.Metrics.gauge "tm.pending:tm1"));
  (* Recording off: the same run creates no gauge. *)
  Obs.reset ();
  Obs.disable ();
  let _, retired = pending_run () in
  Alcotest.(check bool) "same outcome with recording off" true retired;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "no tm.pending gauge" false
    (List.mem_assoc "tm.pending:tm1" snap.Obs.Metrics.s_gauges)

(* ---- trace ring buffer -------------------------------------------------- *)

let read_event i =
  Obs.Event.Read { qm = "qm"; queue = Printf.sprintf "q%d" i; found = true }

let test_ring_wraparound () =
  Obs.reset ~trace_capacity:4 ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let tick = ref 0.0 in
      Obs.Trace.set_clock (fun () ->
          tick := !tick +. 1.0;
          !tick);
      for i = 1 to 10 do
        Obs.Trace.emit (read_event i)
      done;
      Alcotest.(check int) "length capped at capacity" 4 (Obs.Trace.length ());
      Alcotest.(check int) "dropped counts evictions" 6 (Obs.Trace.dropped ());
      let evs = Obs.Trace.events () in
      Alcotest.(check (list (float 0.0)))
        "oldest first, newest kept, clock timestamps"
        [ 7.0; 8.0; 9.0; 10.0 ] (List.map fst evs);
      Alcotest.(check (list string)) "the last four events survive"
        (List.map (fun i -> Obs.Event.to_string (read_event i)) [ 7; 8; 9; 10 ])
        (List.map (fun (_, e) -> Obs.Event.to_string e) evs);
      let dump = Obs.Trace.dump_jsonl () in
      let lines = String.split_on_char '\n' dump in
      let lines = List.filter (fun l -> l <> "") lines in
      Alcotest.(check int) "dump has one line per held event" 4
        (List.length lines);
      Alcotest.(check bool) "lines carry the timestamp" true
        (contains (List.hd lines) {|"ts":7|}))

let test_ring_partial_fill () =
  Obs.reset ~trace_capacity:8 ();
  Fun.protect ~finally:Obs.disable (fun () ->
      for i = 1 to 3 do
        Obs.Trace.emit (read_event i)
      done;
      Alcotest.(check int) "length below capacity" 3 (Obs.Trace.length ());
      Alcotest.(check int) "nothing dropped" 0 (Obs.Trace.dropped ());
      Alcotest.(check int) "events returns them all" 3
        (List.length (Obs.Trace.events ()));
      Obs.reset ();
      Alcotest.(check int) "reset clears the ring" 0 (Obs.Trace.length ()))

(* ---- event codec -------------------------------------------------------- *)

(* Strings exercising the escapes: the field separator, the escape
   character itself, and newlines (which would break JSON-lines dumps). *)
let nasty = [ "plain"; "with|pipe"; "back\\slash"; "new\nline"; "mix|\\\n|" ]

let all_variants =
  let open Obs.Event in
  List.concat_map
    (fun s ->
      [
        Enqueue { qm = s; queue = "q"; eid = 1L; txid = s };
        Dequeue { qm = "m"; queue = s; eid = Int64.max_int; txid = "t" };
        Read { qm = s; queue = ""; found = false };
        Error_spill { qm = "m"; error_queue = s; eid = 42L; code = s };
        Txn_begin { tm = s; txid = "x1" };
        Txn_commit { tm = "tm"; txid = s };
        Txn_abort { tm = s; txid = s };
        Wal_append { wal = s; lsn = 7; bytes = 123 };
        Wal_force { wal = s; lsn = 0 };
        Batch_seal { wal = s; batch = 9 };
        Crashpoint_fired { site = s; hit = 3 };
        Client_fsm { client = s; from_state = "Idle"; event = s; to_state = "Sent" };
        Clerk_send { client = s; rid = s; eid = 5L };
        Clerk_receive { client = "c"; rid = s };
        Server_exec { server = s; queue = s; rid = "r"; txid = s };
        Shard_forward { node = s; owner = "shard1"; version = 3 };
        Shard_map_install { node = "shard2"; version = 41 };
        Txn_staged { tm = s; txid = "t" };
        Txn_vote { tm = "tm"; txid = s; rm = s; yes = true };
        Txn_vote { tm = s; txid = "t"; rm = "kv"; yes = false };
        Txn_resolve { tm = s; txid = s; commit = true };
        Txn_resolve { tm = "tm"; txid = "t"; commit = false };
      ])
    nasty

let test_codec_roundtrip () =
  List.iter
    (fun ev ->
      let line = Obs.Event.to_string ev in
      Alcotest.(check bool)
        (Printf.sprintf "single line: %s" line)
        false
        (String.contains line '\n');
      let back = Obs.Event.of_string line in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip: %s" line)
        true (ev = back))
    all_variants;
  (* Older recordings carry a seal reason as a fourth field. *)
  Alcotest.(check bool) "old seal line decodes" true
    (Obs.Event.of_string "seal|qm.log|9|rate"
    = Obs.Event.Batch_seal { wal = "qm.log"; batch = 9 })

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Event.of_string s with
      | _ -> Alcotest.fail (Printf.sprintf "parsed garbage %S" s)
      | exception Failure _ -> ())
    [ ""; "nonsense"; "enq|only|two"; "wappend|w|notanint|0" ]

let test_json_lines () =
  let ev =
    Obs.Event.Enqueue { qm = "qm\"1"; queue = "req"; eid = 17L; txid = "t|x" }
  in
  let line = Obs.Event.to_json_line ~ts:2.5 ev in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json line has %s" needle)
        true (contains line needle))
    [ {|"ts":2.5|}; {|"type":"enq"|}; {|"eid":"17"|}; {|"qm\"1"|} ];
  Alcotest.(check bool) "json line is one line" false (String.contains line '\n')

(* Arbitrary field content survives the codec, not just the handpicked
   nasty strings. *)
let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"event codec roundtrips arbitrary strings" ~count:500
    QCheck2.Gen.(triple string string string)
    (fun (a, b, c) ->
      let ev = Obs.Event.Client_fsm
          { client = a; from_state = b; event = c; to_state = a }
      in
      ev = Obs.Event.of_string (Obs.Event.to_string ev))

let () =
  Alcotest.run "rrq-obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
          Alcotest.test_case "snapshot and diff" `Quick test_snapshot_diff;
          Alcotest.test_case "text and JSON renderings" `Quick test_renderings;
          Alcotest.test_case "disabled mode is a no-op" `Quick
            test_disabled_noop;
          Alcotest.test_case "tm.pending" `Quick test_pending_metrics;
          Alcotest.test_case "parallel commit: events, rounds, memory" `Quick
            test_parallel_commit_observed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "partial fill and reset" `Quick
            test_ring_partial_fill;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip all constructors" `Quick
            test_codec_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_codec_rejects_garbage;
          Alcotest.test_case "JSON lines shape" `Quick test_json_lines;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
    ]
