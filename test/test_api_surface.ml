(* Contract checks for the smaller corners of the public API: accessors,
   orderings, edge cases, introspection counters. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Disk = Rrq_storage.Disk
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter
module Envelope = Rrq_core.Envelope
module Session = Rrq_core.Session
module H = Rrq_test_support.Sim_harness

let test_element_key_ordering () =
  let mk ~prio ~time ~eid =
    Element.make ~eid ~payload:"" ~props:[] ~priority:prio ~enq_time:time
  in
  let k = Element.key in
  Alcotest.(check bool) "higher priority sorts first" true
    (k (mk ~prio:5 ~time:9.0 ~eid:9L) < k (mk ~prio:1 ~time:0.0 ~eid:1L));
  Alcotest.(check bool) "same priority: earlier time first" true
    (k (mk ~prio:3 ~time:1.0 ~eid:9L) < k (mk ~prio:3 ~time:2.0 ~eid:1L));
  Alcotest.(check bool) "full tie: lower eid first" true
    (k (mk ~prio:3 ~time:1.0 ~eid:1L) < k (mk ~prio:3 ~time:1.0 ~eid:2L))

let test_envelope_constructors () =
  let env =
    Envelope.make ~rid:"r" ~client_id:"c" ~reply_node:"n" ~reply_queue:"q"
      ~scratch:"s0" "body"
  in
  Alcotest.(check string) "default kind" "request" env.Envelope.kind;
  let reply = Envelope.reply_to env ~body:"out" in
  Alcotest.(check string) "reply kind" "reply" reply.Envelope.kind;
  Alcotest.(check string) "reply keeps rid" "r" reply.Envelope.rid;
  Alcotest.(check string) "reply scratch cleared" "" reply.Envelope.scratch;
  let next = Envelope.with_body env ~body:"b2" ~scratch:"s1" in
  Alcotest.(check int) "step bumped" 1 next.Envelope.step;
  Alcotest.(check string) "scratch carried" "s1" next.Envelope.scratch;
  Alcotest.(check (list (pair string string))) "props"
    [ ("scratch", "s0"); ("rid", "r"); ("kind", "request"); ("client", "c");
      ("reply_node", "n"); ("reply_queue", "q") ]
    (Envelope.props env)

(* The header travels as element properties and the body as the payload:
   [of_parts] rebuilds the envelope, properties appended after the header
   do not shadow it, and a missing header is a decode error. *)
let test_envelope_of_parts () =
  let env =
    Envelope.make ~rid:"r9" ~client_id:"c" ~reply_node:"n" ~reply_queue:"q"
      ~kind:"intermediate" ~scratch:"pad" ~step:2 "body"
  in
  let props = Envelope.props env in
  Alcotest.(check bool) "round trip" true
    (Envelope.of_parts ~props env.Envelope.body = env);
  let shadows =
    [ ("rid", "x"); ("kind", "x"); ("client", "x"); ("reply_node", "x");
      ("reply_queue", "x"); ("scratch", "x"); ("step", "7") ]
  in
  Alcotest.(check bool) "appended properties do not shadow" true
    (Envelope.of_parts ~props:(props @ shadows) env.Envelope.body = env);
  let plain = { env with Envelope.scratch = ""; step = 0 } in
  Alcotest.(check bool) "nor do they fill an absent scratch or step" true
    (Envelope.of_parts
       ~props:(Envelope.props plain @ shadows)
       plain.Envelope.body
    = plain);
  let body = String.make 64 'b' in
  Alcotest.(check bool) "the body is not copied" true
    ((Envelope.of_parts ~props body).Envelope.body == body);
  Alcotest.(check bool) "no header" true
    (match Envelope.of_parts ~props:[ ("amount", "5") ] "p" with
    | _ -> false
    | exception Rrq_util.Codec.Decode_error _ -> true)

let test_session_rid_helpers () =
  Alcotest.(check string) "rid_of_seq" "r17" (Session.rid_of_seq 17);
  Alcotest.(check (option int)) "seq_of_rid" (Some 17) (Session.seq_of_rid "r17");
  Alcotest.(check (option int)) "malformed" None (Session.seq_of_rid "x17");
  Alcotest.(check (option int)) "not a number" None (Session.seq_of_rid "rxx")

let test_txid_compare_and_equal () =
  let a = Txid.make ~origin:"n" ~inc:1 ~n:1 in
  let b = Txid.make ~origin:"n" ~inc:1 ~n:2 in
  Alcotest.(check bool) "distinct" false (Txid.equal a b);
  Alcotest.(check bool) "ordered" true (Txid.compare a b < 0);
  Alcotest.(check bool) "reflexive" true (Txid.equal a a)

let test_filter_to_string () =
  let f =
    Filter.(And (Prop_eq ("k", "v"), Or (Priority_ge 3, Not (Prop_exists "x"))))
  in
  Alcotest.(check string) "rendering"
    "(k=\"v\" and (prio>=3 or not(has(x))))" (Filter.to_string f)

let test_qm_introspection () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"repo" in
      Alcotest.(check string) "name" "repo" (Qm.name qm);
      Qm.create_queue qm "b";
      Qm.create_queue qm "a";
      Alcotest.(check (list string)) "sorted names" [ "a"; "b" ]
        (Qm.queue_names qm);
      let h, _ = Qm.register qm ~queue:"a" ~registrant:"t" ~stable:false in
      Alcotest.(check string) "handle accessors" "a" (Qm.handle_queue h);
      Alcotest.(check string) "handle registrant" "t" (Qm.handle_registrant h);
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "x"));
      ignore (Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.No_wait));
      Alcotest.(check (pair int int)) "counts" (1, 1) (Qm.counts qm "a");
      Alcotest.(check (option pass)) "read of unknown eid" None (Qm.read qm 424242L);
      Alcotest.check_raises "depth of unknown queue" (Qm.No_such_queue "zz")
        (fun () -> ignore (Qm.depth qm "zz")))

let test_qm_dequeue_set_timeout_empty () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "a";
      Qm.create_queue qm "b";
      let ha, _ = Qm.register qm ~queue:"a" ~registrant:"t" ~stable:false in
      let hb, _ = Qm.register qm ~queue:"b" ~registrant:"t" ~stable:false in
      Alcotest.(check bool) "empty set times out" true
        (Qm.auto_commit qm (fun id ->
             Qm.dequeue_set qm id [ ha; hb ] Qm.No_wait)
        = None))

let test_tm_stats () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let tm = Tm.open_tm disk ~name:"tm" in
      Alcotest.(check string) "name" "tm" (Tm.name tm);
      let t1 = Tm.begin_txn tm in
      ignore (Tm.commit tm t1);
      let t2 = Tm.begin_txn tm in
      Tm.abort tm t2;
      Alcotest.(check bool) "t2 inactive" false (Tm.is_active t2);
      Alcotest.(check (pair int int)) "stats" (1, 1) (Tm.stats tm))

let test_net_counters () =
  H.run_fiber' (fun s ->
      let net = Net.create s (Rng.create 1) in
      let a = Net.make_node net "a" in
      Net.add_service a "echo" (fun m -> m);
      let b = Net.make_node net "b" in
      Alcotest.(check string) "node name" "b" (Net.node_name b);
      Alcotest.(check bool) "up" true (Net.is_up b);
      ignore (Net.call b ~dst:"a" ~service:"echo" Net.Ack);
      Alcotest.(check bool) "messages counted" true (Net.messages_sent net >= 2);
      Alcotest.(check int) "none dropped" 0 (Net.messages_dropped net))

let test_histogram_merge_and_total () =
  let open Rrq_util.Histogram in
  let a = create () and b = create () in
  add a 1.0;
  add a 2.0;
  add b 3.0;
  let m = merge a b in
  Alcotest.(check int) "merged count" 3 (count m);
  Alcotest.(check (float 1e-9)) "merged total" 6.0 (total m);
  Alcotest.(check bool) "summary mentions n=3" true
    (String.length (summary m) > 0 && String.sub (summary m) 0 3 = "n=3")

let () =
  Alcotest.run "rrq-api-surface"
    [
      ( "api",
        [
          Alcotest.test_case "element key ordering" `Quick
            test_element_key_ordering;
          Alcotest.test_case "envelope constructors" `Quick
            test_envelope_constructors;
          Alcotest.test_case "session rid helpers" `Quick test_session_rid_helpers;
          Alcotest.test_case "txid compare/equal" `Quick test_txid_compare_and_equal;
          Alcotest.test_case "filter to_string" `Quick test_filter_to_string;
          Alcotest.test_case "qm introspection" `Quick test_qm_introspection;
          Alcotest.test_case "dequeue_set empty" `Quick
            test_qm_dequeue_set_timeout_empty;
          Alcotest.test_case "tm stats" `Quick test_tm_stats;
          Alcotest.test_case "net counters" `Quick test_net_counters;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge_and_total;
          Alcotest.test_case "envelope header as properties" `Quick
            test_envelope_of_parts;
        ] );
    ]
