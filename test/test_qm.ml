(* Tests for the recoverable queue manager: fig. 3 operations, error
   queues, persistent registration, volatility, redirection, triggers,
   strict FIFO, crash recovery and the kill/cancel path. *)

module Sched = Rrq_sim.Sched
module Disk = Rrq_storage.Disk
module Txid = Rrq_txn.Txid
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter
module Node_log = Rrq_txn.Node_log
module Codec = Rrq_util.Codec
module H = Rrq_test_support.Sim_harness

let tx n = Txid.make ~origin:"test" ~inc:1 ~n

let setup ?(attrs = Qm.default_attrs) ?triggers disk qname =
  let qm = Qm.open_qm ?triggers disk ~name:"qm" in
  Qm.create_queue qm ~attrs qname;
  let h, last = Qm.register qm ~queue:qname ~registrant:"tester" ~stable:true in
  (qm, h, last)

let enq ?tag ?props ?priority qm h payload =
  Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ?tag ?props ?priority payload)

let deq ?tag ?filter qm h =
  Qm.auto_commit qm (fun id -> Qm.dequeue qm id h ?tag ?filter Qm.No_wait)

let payload_of = function
  | Some el -> el.Element.payload
  | None -> "<empty>"

(* --- basics ----------------------------------------------------------- *)

let test_roundtrip () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, last = setup disk "q" in
      Alcotest.(check bool) "fresh registration" true (last = None);
      ignore (enq qm h "hello");
      Alcotest.(check int) "depth 1" 1 (Qm.depth qm "q");
      Alcotest.(check string) "fifo" "hello" (payload_of (deq qm h));
      Alcotest.(check int) "depth 0" 0 (Qm.depth qm "q");
      Alcotest.(check bool) "empty now" true (deq qm h = None))

let test_fifo_order () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      List.iter (fun p -> ignore (enq qm h p)) [ "a"; "b"; "c" ];
      Alcotest.(check (list string)) "fifo order" [ "a"; "b"; "c" ]
        (List.init 3 (fun _ -> payload_of (deq qm h))))

let test_priority_order () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq ~priority:1 qm h "low");
      ignore (enq ~priority:9 qm h "high");
      ignore (enq ~priority:5 qm h "mid");
      ignore (enq ~priority:9 qm h "high2");
      Alcotest.(check (list string)) "priority then fifo"
        [ "high"; "high2"; "mid"; "low" ]
        (List.init 4 (fun _ -> payload_of (deq qm h))))

let test_filter_dequeue () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq ~props:[ ("type", "credit") ] qm h "c1");
      ignore (enq ~props:[ ("type", "debit"); ("amount", "500") ] qm h "d1");
      ignore (enq ~props:[ ("type", "debit"); ("amount", "100") ] qm h "d2");
      let debit = Filter.Prop_eq ("type", "debit") in
      Alcotest.(check string) "first debit" "d1" (payload_of (deq ~filter:debit qm h));
      let big = Filter.(And (debit, Prop_ge ("amount", 200))) in
      Alcotest.(check bool) "no big debit left" true (deq ~filter:big qm h = None);
      Alcotest.(check string) "credit still first overall" "c1"
        (payload_of (deq qm h)))

let test_txn_visibility () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let id = tx 1 in
      ignore (Qm.enqueue qm id h "pending");
      Alcotest.(check int) "invisible before commit" 0 (Qm.depth qm "q");
      Alcotest.(check bool) "not dequeueable" true (deq qm h = None);
      Qm.commit qm id;
      Alcotest.(check string) "visible after commit" "pending" (payload_of (deq qm h)))

let test_skip_locked () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "a");
      ignore (enq qm h "b");
      let id1 = tx 1 and id2 = tx 2 in
      let e1 = Qm.dequeue qm id1 h Qm.No_wait in
      Alcotest.(check string) "t1 sees a" "a" (payload_of e1);
      (* second, concurrent dequeuer skips the locked head (paper 10) *)
      let e2 = Qm.dequeue qm id2 h Qm.No_wait in
      Alcotest.(check string) "t2 skips to b" "b" (payload_of e2);
      Qm.commit qm id1;
      Qm.commit qm id2;
      Alcotest.(check int) "both gone" 0 (Qm.depth qm "q"))

let test_abort_returns_element () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "a");
      let id = tx 1 in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      (Qm.participant qm).Tm.p_abort id;
      let el = deq qm h in
      Alcotest.(check string) "back in queue" "a" (payload_of el);
      (match el with
      | Some e -> Alcotest.(check int) "retry counted" 1 e.Element.delivery_count
      | None -> Alcotest.fail "missing"))

let test_error_queue_after_n_aborts () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ =
        setup ~attrs:{ Qm.default_attrs with retry_limit = 3 } disk "q"
      in
      ignore (enq qm h "poison");
      for i = 1 to 3 do
        let id = tx i in
        let el = Qm.dequeue qm id h Qm.No_wait in
        Alcotest.(check bool) (Printf.sprintf "attempt %d sees it" i) true
          (el <> None);
        (Qm.participant qm).Tm.p_abort id
      done;
      Alcotest.(check int) "main queue empty" 0 (Qm.depth qm "q");
      Alcotest.(check int) "error queue has it" 1 (Qm.depth qm "q.err");
      match Qm.elements qm "q.err" with
      | [ el ] ->
        Alcotest.(check int) "count" 3 el.Element.delivery_count;
        Alcotest.(check bool) "abort code set" true (el.Element.abort_code <> None)
      | _ -> Alcotest.fail "expected exactly one error element")

let test_error_queue_override_per_call () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ =
        setup ~attrs:{ Qm.default_attrs with retry_limit = 1 } disk "q"
      in
      Qm.create_queue qm "special.err";
      ignore (enq qm h "p");
      let id = tx 1 in
      ignore (Qm.dequeue qm id h ~error_queue:"special.err" Qm.No_wait);
      (Qm.participant qm).Tm.p_abort id;
      Alcotest.(check int) "moved to the per-call error queue" 1
        (Qm.depth qm "special.err"))

let test_retry_counter_durable () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ =
        setup ~attrs:{ Qm.default_attrs with retry_limit = 3 } disk "q"
      in
      ignore (enq qm h "p");
      let id = tx 1 in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      (Qm.participant qm).Tm.p_abort id;
      (* crash: the bump must persist so the element cannot cycle forever *)
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      match Qm.elements qm2 "q" with
      | [ el ] -> Alcotest.(check int) "durable retry count" 1 el.Element.delivery_count
      | _ -> Alcotest.fail "element lost")

(* --- persistence ------------------------------------------------------- *)

let test_committed_enqueue_survives_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "keep");
      let id = tx 1 in
      ignore (Qm.enqueue qm id h "lose") (* never committed *);
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check int) "only committed element" 1 (Qm.depth qm2 "q");
      Alcotest.(check string) "payload" "keep" (payload_of (deq qm2 h2)))

let test_committed_dequeue_survives_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "a");
      ignore (deq qm h);
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check int) "stays dequeued" 0 (Qm.depth qm2 "q"))

let test_uncommitted_dequeue_returns_after_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "a");
      let id = tx 1 in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      (* crash with the dequeue unresolved (neither committed nor prepared):
         the request must be back in the queue after recovery (paper 2) *)
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check string) "request reappears" "a" (payload_of (deq qm2 h2)))

let test_prepared_dequeue_stays_locked_after_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "a");
      let id = tx 1 in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      Alcotest.(check bool) "prepare ok" true
        ((Qm.participant qm).Tm.p_prepare id ~coordinator:"c" ());
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      (* element present but locked by the in-doubt transaction *)
      Alcotest.(check int) "present" 1 (Qm.depth qm2 "q");
      Alcotest.(check bool) "not dequeueable" true (deq qm2 h2 = None);
      (* commit resolves and removes it *)
      ignore ((Qm.participant qm2).Tm.p_commit id);
      Alcotest.(check int) "gone after commit" 0 (Qm.depth qm2 "q"))

let test_prepared_enqueue_applies_on_commit_after_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let id = tx 1 in
      ignore (Qm.enqueue qm id h "deferred");
      ignore ((Qm.participant qm).Tm.p_prepare id ~coordinator:"c" ());
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check int) "invisible while in doubt" 0 (Qm.depth qm2 "q");
      ignore ((Qm.participant qm2).Tm.p_commit id);
      Alcotest.(check int) "applied on commit" 1 (Qm.depth qm2 "q"))

let test_checkpoint_equivalence () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      for i = 1 to 10 do
        ignore (enq ~priority:(i mod 3) qm h (Printf.sprintf "p%d" i))
      done;
      ignore (deq qm h);
      Qm.checkpoint qm;
      for i = 11 to 15 do
        ignore (enq qm h (Printf.sprintf "p%d" i))
      done;
      ignore (deq qm h);
      let before = List.map (fun e -> e.Element.payload) (Qm.elements qm "q") in
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let after = List.map (fun e -> e.Element.payload) (Qm.elements qm2 "q") in
      Alcotest.(check (list string)) "same queue state" before after)

(* --- registration ------------------------------------------------------ *)

let test_registration_tags_roundtrip () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let eid = enq ~tag:"rid-42" qm h "req" in
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let _, last = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      match last with
      | Some l ->
        Alcotest.(check string) "tag" "rid-42" l.Qm.tag;
        Alcotest.(check bool) "kind" true (l.Qm.op_kind = `Enqueue);
        Alcotest.(check int64) "eid" eid l.Qm.op_eid;
        Alcotest.(check string) "the eid reads the payload" "req"
          (payload_of (Qm.read qm2 l.Qm.op_eid))
      | None -> Alcotest.fail "expected last-op info")

let test_tag_atomic_with_op () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      (* an aborted tagged operation must not update the tag *)
      let id = tx 1 in
      ignore (Qm.enqueue qm id h ~tag:"lost" "x");
      (Qm.participant qm).Tm.p_abort id;
      let _, last = Qm.register qm ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check bool) "no tag recorded" true (last = None))

let test_dequeue_tag_and_rereceive () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "reply-1");
      ignore (deq ~tag:"ckpt-7" qm h);
      (* Rereceive: the copy is readable even though the element is gone *)
      (match Qm.read_last qm h with
      | Some el -> Alcotest.(check string) "copy" "reply-1" el.Element.payload
      | None -> Alcotest.fail "expected saved copy");
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, last = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      (match last with
      | Some l ->
        Alcotest.(check string) "tag after crash" "ckpt-7" l.Qm.tag;
        Alcotest.(check bool) "kind" true (l.Qm.op_kind = `Dequeue)
      | None -> Alcotest.fail "tag lost");
      match Qm.read_last qm2 h2 with
      | Some el -> Alcotest.(check string) "copy survives" "reply-1" el.Element.payload
      | None -> Alcotest.fail "copy lost")

(* A tagged dequeue from a stable queue logs its Rereceive copy as a
   reference to the element its own record removes; replay resolves it
   before that removal, whether recovery replays a committed record or
   commits an in-doubt one. *)
let test_dequeue_copy_by_reference_survives_replay () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let eid = enq ~props:[ ("k", "v") ] qm h "reply-1" in
      ignore (enq qm h "reply-2");
      ignore (deq ~tag:"ckpt-1" qm h);
      let id = tx 1 in
      ignore (Qm.dequeue qm id h ~tag:"ckpt-2" Qm.No_wait);
      ignore ((Qm.participant qm).Tm.p_prepare id ~coordinator:"c" ());
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      (match Qm.read_last qm2 h2 with
      | Some el ->
        Alcotest.(check string) "replayed copy" "reply-1" el.Element.payload;
        Alcotest.(check int64) "its eid" eid el.Element.eid;
        Alcotest.(check (list (pair string string))) "its props" [ ("k", "v") ]
          el.Element.props
      | None -> Alcotest.fail "copy lost in replay");
      ignore ((Qm.participant qm2).Tm.p_commit id);
      Alcotest.(check int) "in-doubt dequeue applied" 0 (Qm.depth qm2 "q");
      Alcotest.(check string) "in-doubt copy" "reply-2" (payload_of (Qm.read_last qm2 h2)))

(* Once the record is behind a checkpoint, the element is gone from the
   log: the snapshot holds the copy in full. *)
let test_dequeue_copy_survives_checkpoint () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "reply-1");
      ignore (deq ~tag:"ckpt-1" qm h);
      Qm.checkpoint qm;
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check string) "copy from the checkpoint" "reply-1"
        (payload_of (Qm.read_last qm2 h2)))

(* A 16 KiB body is logged by reference: its enqueue allocates less than
   the body. Its Rereceive copy goes into the checkpoint by reference too:
   the file is the flat encoding of the node's snapshot all the same, and
   after a crash the copy reads back byte for byte. *)
let test_spliced_copy_survives_checkpoint () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let log = Node_log.open_log disk ~name:"qm" in
      let qm = Qm.attach log ~name:"qm" in
      Qm.create_queue qm "q";
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"tester" ~stable:true in
      let body = String.init 16384 (fun i -> Char.chr (i * 7 land 0xff)) in
      let before = Gc.allocated_bytes () in
      ignore (enq qm h body);
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "the enqueue allocated %.0f bytes" allocated)
        true
        (allocated < float_of_int (String.length body));
      ignore (deq ~tag:"ckpt-1" qm h);
      Qm.checkpoint qm;
      let file = Option.get (Disk.read_file disk "qm.log.ckpt") in
      let e = Codec.encoder () in
      Codec.int e (Codec.get_int (Codec.decoder file));
      Codec.option Codec.string e (Some (Node_log.snapshot log));
      Alcotest.(check bool) "the file is the snapshot's encoding" true
        (file = Codec.to_string e);
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check bool) "the copy, byte for byte" true
        (payload_of (Qm.read_last qm2 h2) = body))

(* A volatile queue's element was never logged, so its tagged dequeue logs
   the copy in full. *)
let test_volatile_dequeue_copy_survives_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ =
        setup ~attrs:{ Qm.default_attrs with durability = Qm.Volatile } disk "q"
      in
      ignore (enq qm h "reply-1");
      ignore (deq ~tag:"ckpt-1" qm h);
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check string) "copy survives" "reply-1" (payload_of (Qm.read_last qm2 h2)))

let test_unstable_registration_keeps_no_tags () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "q";
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"srv" ~stable:false in
      ignore (enq ~tag:"t" qm h "x");
      let _, last = Qm.register qm ~queue:"q" ~registrant:"srv" ~stable:false in
      Alcotest.(check bool) "no tag" true (last = None))

let test_deregister () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      Qm.deregister qm h;
      Alcotest.check_raises "handle dead" (Qm.Not_registered "tester@q")
        (fun () -> ignore (enq qm h "x"));
      let _, last = Qm.register qm ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check bool) "state wiped" true (last = None))

(* --- volatile / redirect / alert / triggers ---------------------------- *)

let test_volatile_queue_lost_on_crash_and_unlogged () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm
        ~attrs:{ Qm.default_attrs with durability = Qm.Volatile }
        "vq";
      let h, _ = Qm.register qm ~queue:"vq" ~registrant:"t" ~stable:false in
      let synced_before = Disk.synced_bytes disk in
      for i = 1 to 10 do
        ignore (enq qm h (string_of_int i))
      done;
      Alcotest.(check int) "present" 10 (Qm.depth qm "vq");
      Alcotest.(check int) "no forced log writes for volatile ops"
        synced_before (Disk.synced_bytes disk);
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check bool) "queue definition survives" true
        (Qm.queue_exists qm2 "vq");
      Alcotest.(check int) "contents lost" 0 (Qm.depth qm2 "vq"))

(* A checkpoint deletes the log segments holding a volatile queue's
   [RCreate], so its snapshot must keep the queue's definition, attrs and
   stopped flag, though not its contents. *)
let test_volatile_queue_survives_checkpoint () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm
        ~attrs:{ Qm.default_attrs with durability = Qm.Volatile }
        "vq";
      let h, _ = Qm.register qm ~queue:"vq" ~registrant:"t" ~stable:false in
      for i = 1 to 3 do
        ignore (enq qm h (string_of_int i))
      done;
      Qm.stop_queue qm "vq";
      Qm.checkpoint qm;
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check bool) "queue definition survives" true
        (Qm.queue_exists qm2 "vq");
      Alcotest.(check int) "contents lost" 0 (Qm.depth qm2 "vq");
      Alcotest.(check bool) "still stopped" true (Qm.queue_stopped qm2 "vq");
      Qm.start_queue qm2 "vq";
      let h2, _ = Qm.register qm2 ~queue:"vq" ~registrant:"t" ~stable:false in
      let synced_before = Disk.synced_bytes disk in
      ignore (enq qm2 h2 "x");
      Alcotest.(check int) "still volatile: the enqueue is unlogged"
        synced_before (Disk.synced_bytes disk))

(* A stable queue is a main-memory database that logs its updates (§10):
   a committed enqueue and dequeue write their redo records to the node log
   and nothing else, so the disk's synced bytes grow by exactly what the
   log grew. *)
let test_stable_queue_writes_only_its_log () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let synced_before = Disk.synced_bytes disk in
      let log_before = Qm.live_log_bytes qm in
      ignore (enq qm h "payload");
      Alcotest.(check string) "dequeued" "payload" (payload_of (deq qm h));
      let log_growth = Qm.live_log_bytes qm - log_before in
      Alcotest.(check bool) "the updates were logged" true (log_growth > 0);
      Alcotest.(check int) "synced bytes are the log's growth" log_growth
        (Disk.synced_bytes disk - synced_before))

(* Each queued body is logged once: a tagged enqueue's registration
   update carries no second copy, and a tagged dequeue's names the element
   the log already holds. *)
let test_tagged_ops_log_the_payload_once () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let body = String.make 16384 'b' in
      let grows f =
        let before = Disk.synced_bytes disk in
        f ();
        Disk.synced_bytes disk - before
      in
      let enq_bytes = grows (fun () -> ignore (enq ~tag:"rid-1" qm h body)) in
      let deq_bytes =
        grows (fun () ->
            Alcotest.(check int) "dequeued" 16384
              (String.length (payload_of (deq ~tag:"ckpt-1" qm h))))
      in
      Alcotest.(check bool)
        (Printf.sprintf "enqueue logs one body (%d B)" enq_bytes)
        true
        (enq_bytes > 16384 && enq_bytes < 16384 + 1024);
      Alcotest.(check bool)
        (Printf.sprintf "dequeue logs no body (%d B)" deq_bytes)
        true (deq_bytes < 1024))

let test_redirect () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "target";
      Qm.create_queue qm
        ~attrs:{ Qm.default_attrs with redirect_to = Some "target" }
        "source";
      let h, _ = Qm.register qm ~queue:"source" ~registrant:"t" ~stable:false in
      ignore (enq qm h "x");
      Alcotest.(check int) "source empty" 0 (Qm.depth qm "source");
      Alcotest.(check int) "target got it" 1 (Qm.depth qm "target"))

(* A redirected enqueue is logged by the queue it lands in. A [Volatile]
   source redirecting into a [Stable] target logs the element, so it and
   a tagged dequeue's Rereceive copy survive a crash. *)
let test_redirect_into_stable_survives_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "target";
      Qm.create_queue qm
        ~attrs:
          { Qm.default_attrs with durability = Qm.Volatile; redirect_to = Some "target" }
        "source";
      let src, _ = Qm.register qm ~queue:"source" ~registrant:"t" ~stable:false in
      let tgt, _ = Qm.register qm ~queue:"target" ~registrant:"r" ~stable:true in
      (* After a checkpoint the snapshot holds the [Volatile] source's
         definition but none of its elements, so replay must not need
         them. *)
      Qm.checkpoint qm;
      ignore (enq qm src "a");
      ignore (enq qm src "b");
      Alcotest.(check string) "dequeued" "a" (payload_of (deq ~tag:"ck" qm tgt));
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let tgt2, _ = Qm.register qm2 ~queue:"target" ~registrant:"r" ~stable:true in
      Alcotest.(check int) "target keeps the undequeued element" 1
        (Qm.depth qm2 "target");
      Alcotest.(check string) "Rereceive copy survives" "a"
        (payload_of (Qm.read_last qm2 tgt2)))

(* The other direction: a [Stable] source redirecting into a [Volatile]
   target logs neither the enqueue nor the dequeue, so replay cannot bring
   a dequeued element back; the target's contents die with the crash. *)
let test_redirect_into_volatile_unlogged () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm
        ~attrs:{ Qm.default_attrs with durability = Qm.Volatile }
        "target";
      Qm.create_queue qm
        ~attrs:{ Qm.default_attrs with redirect_to = Some "target" }
        "source";
      let src, _ = Qm.register qm ~queue:"source" ~registrant:"t" ~stable:false in
      let tgt, _ = Qm.register qm ~queue:"target" ~registrant:"r" ~stable:false in
      ignore (enq qm src "a");
      ignore (enq qm src "b");
      Alcotest.(check string) "dequeued" "a" (payload_of (deq qm tgt));
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check (list string)) "nothing comes back" []
        (List.map
           (fun el -> el.Element.payload)
           (Qm.elements qm2 "source" @ Qm.elements qm2 "target")))

(* A [Volatile] element that spills into a [Stable] error queue is logged
   there, since it was never in the log: it survives a crash with its
   count and abort code. *)
let test_volatile_spill_into_stable_error_queue () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ =
        setup
          ~attrs:{ Qm.default_attrs with durability = Qm.Volatile; retry_limit = 2 }
          disk "vq"
      in
      ignore (enq qm h "poison");
      for i = 1 to 2 do
        let id = tx i in
        ignore (Qm.dequeue qm id h Qm.No_wait);
        (Qm.participant qm).Tm.p_abort id
      done;
      Alcotest.(check int) "spilled" 1 (Qm.depth qm "vq.err");
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check bool) "error queue recovered" true
        (Qm.queue_exists qm2 "vq.err");
      match Qm.elements qm2 "vq.err" with
      | [ el ] ->
        Alcotest.(check string) "payload" "poison" el.Element.payload;
        Alcotest.(check int) "count" 2 el.Element.delivery_count;
        Alcotest.(check (option string)) "abort code" (Some "aborted 2 times")
          el.Element.abort_code
      | els -> Alcotest.failf "%d elements in the error queue" (List.length els))

let test_alert_threshold () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm
        ~attrs:{ Qm.default_attrs with alert_threshold = Some 3 }
        "q";
      let alerts = ref [] in
      Qm.set_alert_callback qm (fun qn d -> alerts := (qn, d) :: !alerts);
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"t" ~stable:false in
      for i = 1 to 5 do
        ignore (enq qm h (string_of_int i))
      done;
      (* fires once on crossing, not on every further insert *)
      Alcotest.(check (list (pair string int))) "one alert" [ ("q", 3) ]
        (List.rev !alerts);
      (* drain below threshold, refill: fires again *)
      let h2, _ = Qm.register qm ~queue:"q" ~registrant:"d" ~stable:false in
      for _ = 1 to 4 do
        ignore (deq qm h2)
      done;
      ignore (enq qm h "x");
      ignore (enq qm h "y");
      Alcotest.(check int) "fires again after dropping below" 2
        (List.length !alerts))

let test_trigger_join () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let trig =
        {
          Qm.on_queue = "join";
          group_prop = "fork";
          complete =
            (fun members ->
              match Element.prop (List.hd members) "total" with
              | Some total -> List.length members >= int_of_string total
              | None -> false);
          make =
            (fun members ->
              let fork =
                match Element.prop (List.hd members) "fork" with
                | Some f -> f
                | None -> "?"
              in
              let merged =
                String.concat "+"
                  (List.map (fun m -> m.Element.payload) members)
              in
              [ ("next", merged, [ ("fork", fork) ]) ]);
        }
      in
      let qm = Qm.open_qm ~triggers:[ trig ] disk ~name:"qm" in
      Qm.create_queue qm "join";
      Qm.create_queue qm "next";
      let h, _ = Qm.register qm ~queue:"join" ~registrant:"t" ~stable:false in
      let props i = [ ("fork", "f1"); ("total", "3"); ("i", string_of_int i) ] in
      ignore (enq ~props:(props 1) qm h "r1");
      ignore (enq ~props:(props 2) qm h "r2");
      Alcotest.(check int) "not fired yet" 0 (Qm.depth qm "next");
      ignore (enq ~props:(props 3) qm h "r3");
      Alcotest.(check int) "group consumed" 0 (Qm.depth qm "join");
      Alcotest.(check int) "continuation produced" 1 (Qm.depth qm "next");
      match Qm.elements qm "next" with
      | [ el ] -> Alcotest.(check string) "merged" "r1+r2+r3" el.Element.payload
      | _ -> Alcotest.fail "expected one element")

let test_trigger_replay_deterministic () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let trig =
        {
          Qm.on_queue = "join";
          group_prop = "fork";
          complete = (fun members -> List.length members >= 2);
          make = (fun _ -> [ ("next", "done", []) ]);
        }
      in
      let qm = Qm.open_qm ~triggers:[ trig ] disk ~name:"qm" in
      Qm.create_queue qm "join";
      Qm.create_queue qm "next";
      let h, _ = Qm.register qm ~queue:"join" ~registrant:"t" ~stable:false in
      ignore (enq ~props:[ ("fork", "f") ] qm h "a");
      ignore (enq ~props:[ ("fork", "f") ] qm h "b");
      Alcotest.(check int) "fired live" 1 (Qm.depth qm "next");
      Disk.crash disk;
      let qm2 = Qm.open_qm ~triggers:[ trig ] disk ~name:"qm" in
      Alcotest.(check int) "join still consumed after replay" 0
        (Qm.depth qm2 "join");
      Alcotest.(check int) "continuation still there" 1 (Qm.depth qm2 "next"))

(* --- kill / cancel ------------------------------------------------------ *)

let test_kill_ready_element () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let eid = enq qm h "victim" in
      Alcotest.(check bool) "killed" true (Qm.kill_element qm eid);
      Alcotest.(check int) "gone" 0 (Qm.depth qm "q");
      Alcotest.(check bool) "idempotent" false (Qm.kill_element qm eid);
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check int) "durably gone" 0 (Qm.depth qm2 "q"))

let test_kill_locked_element_aborts_holder () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let aborted = ref None in
      Qm.set_abort_callback qm (fun id ->
          aborted := Some id;
          (Qm.participant qm).Tm.p_abort id);
      let eid = enq qm h "victim" in
      let id = tx 1 in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      Alcotest.(check bool) "killed" true (Qm.kill_element qm eid);
      Alcotest.(check bool) "holder aborted" true (!aborted = Some id);
      Alcotest.(check int) "gone" 0 (Qm.depth qm "q"))

let test_read_and_read_locked () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      let eid = enq qm h "data" in
      (match Qm.read qm eid with
      | Some el -> Alcotest.(check string) "read" "data" el.Element.payload
      | None -> Alcotest.fail "missing");
      let id = tx 1 in
      ignore (Qm.dequeue qm id h Qm.No_wait);
      (* reads ignore write-locks (paper 10) *)
      Alcotest.(check bool) "readable while locked" true (Qm.read qm eid <> None);
      Qm.commit qm id;
      Alcotest.(check bool) "gone after commit" true (Qm.read qm eid = None))

(* --- blocking, sets, strict fifo ---------------------------------------- *)

let test_blocking_dequeue () =
  let got = ref "" and woke_at = ref 0.0 in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm, h, _ = setup disk "q" in
        Qm.set_clock qm (fun () -> Sched.now s);
        ignore
          (Sched.spawn s ~name:"consumer" (fun () ->
               match Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.Block) with
               | Some el ->
                 got := el.Element.payload;
                 woke_at := Sched.clock ()
               | None -> Alcotest.fail "blocked dequeue returned None"));
        ignore
          (Sched.spawn s ~name:"producer" (fun () ->
               Sched.sleep 3.0;
               ignore (enq qm h "late"))))
  in
  Alcotest.(check string) "value" "late" !got;
  Alcotest.(check (float 1e-9)) "woke when produced" 3.0 !woke_at

let test_dequeue_timeout () =
  let r = ref (Some "x") in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm, h, _ = setup disk "q" in
        Qm.set_clock qm (fun () -> Sched.now s);
        ignore
          (Sched.spawn s ~name:"consumer" (fun () ->
               r :=
                 Qm.auto_commit qm (fun id ->
                     Qm.dequeue qm id h (Qm.Timeout 2.0))
                 |> Option.map (fun el -> el.Element.payload))))
  in
  Alcotest.(check (option string)) "timed out empty" None !r

let test_dequeue_set () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "qa";
      Qm.create_queue qm "qb";
      let ha, _ = Qm.register qm ~queue:"qa" ~registrant:"t" ~stable:false in
      let hb, _ = Qm.register qm ~queue:"qb" ~registrant:"t" ~stable:false in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id ha ~priority:1 "a"));
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id hb ~priority:5 "b"));
      match
        Qm.auto_commit qm (fun id -> Qm.dequeue_set qm id [ ha; hb ] Qm.No_wait)
      with
      | Some (h, el) ->
        Alcotest.(check string) "highest priority across set" "b"
          el.Element.payload;
        Alcotest.(check string) "from qb" "qb" (Qm.handle_queue h)
      | None -> Alcotest.fail "expected an element")

(* A set waiter woken by an insert on one queue may take a better element
   from another: a plain waiter of the first queue must still be woken for
   the element left there. *)
let test_set_waiter_leaves_no_lost_wakeup () =
  let got = ref None in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm = Qm.open_qm disk ~name:"qm" in
        Qm.set_clock qm (fun () -> Sched.now s);
        Qm.create_queue qm "qa";
        Qm.create_queue qm "qb";
        let ha, _ = Qm.register qm ~queue:"qa" ~registrant:"t" ~stable:false in
        let hb, _ = Qm.register qm ~queue:"qb" ~registrant:"t" ~stable:false in
        ignore
          (Sched.spawn s ~name:"set" (fun () ->
               ignore
                 (Qm.auto_commit qm (fun id ->
                      Qm.dequeue_set qm id [ ha; hb ] Qm.Block))));
        ignore
          (Sched.spawn s ~name:"single" (fun () ->
               got :=
                 Qm.auto_commit qm (fun id -> Qm.dequeue qm id ha Qm.Block)
                 |> Option.map (fun el -> (el.Element.payload, Sched.clock ()))));
        ignore
          (Sched.spawn s ~name:"producer" (fun () ->
               Sched.sleep 1.0;
               Qm.auto_commit qm (fun id ->
                   ignore (Qm.enqueue qm id ha "a");
                   ignore (Qm.enqueue qm id hb ~priority:5 "b")))))
  in
  Alcotest.(check (option (pair string (float 1e-9)))) "single waiter served"
    (Some ("a", 1.0)) !got

(* Two blocked dequeuers of one queue, filtering k=a and k=b; an element
   with k=b arrives at t=1. Whichever waiter the insert wakes, the k=b one
   must return it then. [deq] is a single dequeue or a set of one. *)
let test_filtered_waiters ~deq wait () =
  let got = ref None in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm, h, _ = setup disk "q" in
        Qm.set_clock qm (fun () -> Sched.now s);
        let waiter k =
          ignore
            (Sched.spawn s ~name:("k=" ^ k) (fun () ->
                 let el =
                   Qm.auto_commit qm (fun id ->
                       deq qm id h ~filter:(Filter.Prop_eq ("k", k)) wait)
                 in
                 if k = "b" then
                   got :=
                     Option.map (fun el -> (el.Element.payload, Sched.clock ())) el))
        in
        waiter "a";
        waiter "b";
        ignore
          (Sched.spawn s ~name:"producer" (fun () ->
               Sched.sleep 1.0;
               ignore (enq ~props:[ ("k", "b") ] qm h "x"))))
  in
  Alcotest.(check (option (pair string (float 1e-9)))) "k=b waiter served at t=1"
    (Some ("x", 1.0)) !got

let single qm id h ~filter wait = Qm.dequeue qm id h ~filter wait

let set_of_one qm id h ~filter wait =
  Option.map snd (Qm.dequeue_set qm id [ h ] ~filter wait)

(* Run through a single dequeue and through a set of one: the strict-FIFO
   lock serializes both. *)
let test_strict_fifo_serializes () =
  List.iter
    (fun deq ->
      let order = ref [] in
      let _ =
        H.run (fun s ->
            let disk = Disk.create "n" in
            let qm, h, _ =
              setup ~attrs:{ Qm.default_attrs with strict_fifo = true } disk "q"
            in
            Qm.set_clock qm (fun () -> Sched.now s);
            ignore (Sched.spawn s ~name:"seed" (fun () ->
                ignore (enq qm h "a");
                ignore (enq qm h "b")));
            ignore
              (Sched.spawn s ~name:"t1" (fun () ->
                   Sched.sleep 1.0;
                   let id = tx 1 in
                   let el = deq qm id h ~filter:Filter.True Qm.No_wait in
                   order := ("t1:" ^ payload_of el) :: !order;
                   Sched.sleep 5.0;
                   Qm.commit qm id;
                   order := "t1:commit" :: !order));
            ignore
              (Sched.spawn s ~name:"t2" (fun () ->
                   Sched.sleep 2.0;
                   let id = tx 2 in
                   (* blocks on the queue lock until t1 commits *)
                   let el = deq qm id h ~filter:Filter.True Qm.No_wait in
                   order := ("t2:" ^ payload_of el) :: !order;
                   Qm.commit qm id)))
      in
      Alcotest.(check (list string)) "strict order"
        [ "t1:a"; "t1:commit"; "t2:b" ] (List.rev !order))
    [ single; set_of_one ]

(* Two set dequeuers over the strict queues qa and qb. t1 picks a2 and
   waits for qa's lock, which t0 holds; t2 picks b2 (its filter admits
   only k=x) and waits for qb's, which t3 holds. t0 takes a2 too and
   commits; t3 commits after a k=x element of priority 9 reached qa. Once
   granted its lock, each takes from that queue alone, so neither asks
   for a second strict lock while holding one: t1 finds qa empty, t2
   takes b2. Re-selecting across the set, t1 would hold qa and wait for
   qb while t2 held qb and waited for qa. *)
let test_set_holds_one_strict_lock () =
  let got = ref [] in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm = Qm.open_qm disk ~name:"qm" in
        Qm.set_clock qm (fun () -> Sched.now s);
        let strict = { Qm.default_attrs with strict_fifo = true } in
        Qm.create_queue qm ~attrs:strict "qa";
        Qm.create_queue qm ~attrs:strict "qb";
        let ha, _ = Qm.register qm ~queue:"qa" ~registrant:"t" ~stable:false in
        let hb, _ = Qm.register qm ~queue:"qb" ~registrant:"t" ~stable:false in
        let x = [ ("k", "x") ] in
        let record name f =
          let r =
            try payload_of (f ()) with Qm.Conflict msg -> "conflict: " ^ msg
          in
          got := (name, r) :: !got
        in
        ignore
          (Sched.spawn s ~name:"seed" (fun () ->
               ignore (enq qm ha "a1");
               ignore (enq qm ha "a2");
               ignore (enq qm hb "b1");
               ignore (enq ~props:x qm hb "b2")));
        let holder name n h ~at ~more =
          ignore
            (Sched.spawn s ~name (fun () ->
                 Sched.sleep 1.0;
                 let id = tx n in
                 ignore (Qm.dequeue qm id h Qm.No_wait);
                 Sched.sleep (at -. 1.0 -. 0.5);
                 more id;
                 Sched.sleep 0.5;
                 Qm.commit qm id))
        in
        holder "t0" 0 ha ~at:3.0 ~more:(fun id -> ignore (Qm.dequeue qm id ha Qm.No_wait));
        holder "t3" 3 hb ~at:5.0 ~more:(fun _ ->
            ignore (enq ~props:x ~priority:9 qm ha "a3"));
        let set name n ?filter ~at () =
          ignore
            (Sched.spawn s ~name (fun () ->
                 Sched.sleep at;
                 let id = tx n in
                 record name (fun () ->
                     Option.map snd (Qm.dequeue_set qm id [ ha; hb ] ?filter Qm.No_wait));
                 Sched.sleep 5.0;
                 Qm.commit qm id))
        in
        set "t1" 1 ~at:2.0 ();
        set "t2" 2 ~filter:(Filter.Prop_eq ("k", "x")) ~at:2.2 ())
  in
  Alcotest.(check (list (pair string string))) "no deadlock"
    [ ("t1", "<empty>"); ("t2", "b2") ] (List.rev !got)

let test_abort_stale () =
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm, h, _ = setup disk "q" in
        Qm.set_clock qm (fun () -> Sched.now s);
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               ignore (enq qm h "a");
               let id = tx 1 in
               ignore (Qm.dequeue qm id h Qm.No_wait);
               Sched.sleep 10.0;
               Alcotest.(check int) "one stale txn aborted" 1
                 (Qm.abort_stale qm ~older_than:5.0);
               Alcotest.(check string) "element freed" "a"
                 (payload_of (deq qm h)))))
  in
  ()

(* A janitor abort is not a failed delivery: the element comes back with
   its retry count unchanged, while a server abort still counts one. Both
   counts are durable. *)
let test_stale_abort_is_not_a_failed_delivery () =
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm, h, _ = setup disk "q" in
        Qm.set_clock qm (fun () -> Sched.now s);
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               ignore (enq qm h "a");
               let delivery_count qm =
                 match Qm.elements qm "q" with
                 | [ el ] -> el.Element.delivery_count
                 | _ -> Alcotest.fail "expected one element"
               in
               ignore (Qm.dequeue qm (tx 1) h Qm.No_wait);
               Sched.sleep 10.0;
               Alcotest.(check int) "one stale txn aborted" 1
                 (Qm.abort_stale qm ~older_than:5.0);
               Alcotest.(check int) "janitor abort: no failed delivery" 0
                 (delivery_count qm);
               ignore (Qm.dequeue qm (tx 2) h Qm.No_wait);
               (Qm.participant qm).Tm.p_abort (tx 2);
               Alcotest.(check int) "server abort: one failed delivery" 1
                 (delivery_count qm);
               Disk.crash disk;
               Alcotest.(check int) "durable" 1
                 (delivery_count (Qm.open_qm disk ~name:"qm")))))
  in
  ()

(* Stale returns have their own bound: an element whose owner keeps
   stalling reaches the error queue after [Qm.stale_limit] janitor aborts,
   its retry count untouched. The stale count survives a checkpoint and a
   crash. *)
let test_stale_returns_bounded () =
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n" in
        let qm, h, _ = setup disk "q" in
        Qm.set_clock qm (fun () -> Sched.now s);
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               ignore (enq qm h "a");
               let stall qm n =
                 ignore (Qm.dequeue qm (tx n) h Qm.No_wait);
                 Sched.sleep 10.0;
                 ignore (Qm.abort_stale qm ~older_than:5.0)
               in
               stall qm 1;
               Qm.checkpoint qm;
               Disk.crash disk;
               let qm = Qm.open_qm disk ~name:"qm" in
               Qm.set_clock qm (fun () -> Sched.now s);
               (match Qm.elements qm "q" with
               | [ el ] ->
                 Alcotest.(check int) "stale count survives a checkpoint" 1
                   el.Element.stale_count
               | _ -> Alcotest.fail "expected one element");
               for n = 2 to Qm.stale_limit - 1 do
                 stall qm n
               done;
               Alcotest.(check int) "still in its queue" 1 (Qm.depth qm "q");
               stall qm Qm.stale_limit;
               Alcotest.(check int) "main queue empty" 0 (Qm.depth qm "q");
               match Qm.elements qm "q.err" with
               | [ el ] ->
                 Alcotest.(check int) "no failed delivery" 0 el.Element.delivery_count;
                 Alcotest.(check (option string)) "abort code"
                   (Some (Printf.sprintf "stalled %d times" Qm.stale_limit))
                   el.Element.abort_code
               | _ -> Alcotest.fail "expected exactly one error element")))
  in
  ()

let test_auto_commit_exception_aborts () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      (try
         Qm.auto_commit qm (fun id ->
             ignore (Qm.enqueue qm id h "x");
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "nothing enqueued" 0 (Qm.depth qm "q"))

(* --- DDL: stop / start / destroy ---------------------------------------- *)

let test_stop_start_queue () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "before");
      Qm.stop_queue qm "q";
      Alcotest.(check bool) "stopped" true (Qm.queue_stopped qm "q");
      Alcotest.check_raises "enqueue rejected" (Qm.Stopped "q") (fun () ->
          ignore (enq qm h "x"));
      Alcotest.check_raises "dequeue rejected" (Qm.Stopped "q") (fun () ->
          ignore (deq qm h));
      Alcotest.check_raises "set dequeue rejected" (Qm.Stopped "q") (fun () ->
          ignore
            (Qm.auto_commit qm (fun id -> Qm.dequeue_set qm id [ h ] Qm.No_wait)));
      Alcotest.(check int) "contents retained" 1 (Qm.depth qm "q");
      (* stopped state survives a crash *)
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check bool) "stopped after recovery" true
        (Qm.queue_stopped qm2 "q");
      Qm.start_queue qm2 "q";
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check string) "flows again" "before" (payload_of (deq qm2 h2)))

let test_destroy_queue () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ = setup disk "q" in
      ignore (enq qm h "doomed");
      Qm.destroy_queue qm "q";
      Alcotest.(check bool) "gone" false (Qm.queue_exists qm "q");
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      Alcotest.(check bool) "durably gone" false (Qm.queue_exists qm2 "q");
      (* recreating starts fresh, registrations were wiped *)
      Qm.create_queue qm2 "q";
      let _, last = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      Alcotest.(check bool) "registration wiped" true (last = None);
      Alcotest.(check int) "empty" 0 (Qm.depth qm2 "q"))

let test_alter_queue () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n" in
      let qm, h, _ =
        setup ~attrs:{ Qm.default_attrs with retry_limit = 2 } disk "q"
      in
      (* raise the retry limit on the live queue *)
      Qm.alter_queue qm "q" { Qm.default_attrs with retry_limit = 5 };
      ignore (enq qm h "p");
      for i = 1 to 4 do
        let id = tx i in
        ignore (Qm.dequeue qm id h Qm.No_wait);
        (Qm.participant qm).Tm.p_abort id
      done;
      Alcotest.(check int) "still in main queue under the new limit" 1
        (Qm.depth qm "q");
      (* the change is durable *)
      Disk.crash disk;
      let qm2 = Qm.open_qm disk ~name:"qm" in
      let h2, _ = Qm.register qm2 ~queue:"q" ~registrant:"tester" ~stable:true in
      let id = tx 9 in
      ignore (Qm.dequeue qm2 id h2 Qm.No_wait);
      (Qm.participant qm2).Tm.p_abort id;
      Alcotest.(check int) "5th abort parks it" 1 (Qm.depth qm2 "q.err");
      (* durability class cannot change *)
      match
        Qm.alter_queue qm2 "q"
          { Qm.default_attrs with durability = Qm.Volatile }
      with
      | () -> Alcotest.fail "durability change must be rejected"
      | exception Invalid_argument _ -> ())

(* --- model-based property test ----------------------------------------- *)

(* Random auto-committed enqueues/dequeues with crashes; the committed
   dequeues plus the surviving queue contents must equal the committed
   enqueues, with nothing processed twice. *)
let prop_no_loss_no_dup =
  QCheck2.Test.make ~name:"qm: no loss, no duplication under crashes" ~count:60
    QCheck2.Gen.(list_size (int_bound 80) (int_bound 9))
    (fun script ->
      H.run_fiber (fun () ->
          let disk = Disk.create "n" in
          let open_it () =
            let qm = Qm.open_qm disk ~name:"qm" in
            Qm.create_queue qm "q";
            let h, _ = Qm.register qm ~queue:"q" ~registrant:"m" ~stable:false in
            (qm, h)
          in
          let qm = ref (fst (open_it ())) in
          let h = ref (snd (open_it ())) in
          let n = ref 0 in
          let enqueued = Hashtbl.create 16 in
          let dequeued = Hashtbl.create 16 in
          List.iter
            (fun op ->
              if op <= 5 then begin
                incr n;
                let p = Printf.sprintf "e%d" !n in
                ignore (enq !qm !h p);
                Hashtbl.replace enqueued p ()
              end
              else if op <= 8 then begin
                match deq !qm !h with
                | Some el ->
                  if Hashtbl.mem dequeued el.Element.payload then
                    failwith "duplicate dequeue";
                  Hashtbl.replace dequeued el.Element.payload ()
                | None -> ()
              end
              else begin
                Disk.crash disk;
                let q2, h2 = open_it () in
                qm := q2;
                h := h2
              end)
            script;
          let remaining =
            List.map (fun e -> e.Element.payload) (Qm.elements !qm "q")
          in
          List.iter
            (fun p ->
              if Hashtbl.mem dequeued p then failwith "element both dequeued and present")
            remaining;
          let accounted = List.length remaining + Hashtbl.length dequeued in
          if accounted <> Hashtbl.length enqueued then
            failwith
              (Printf.sprintf "lost elements: enqueued %d accounted %d"
                 (Hashtbl.length enqueued) accounted);
          true))

let basics =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "priority order" `Quick test_priority_order;
    Alcotest.test_case "filter dequeue" `Quick test_filter_dequeue;
    Alcotest.test_case "txn visibility" `Quick test_txn_visibility;
    Alcotest.test_case "skip-locked concurrency" `Quick test_skip_locked;
    Alcotest.test_case "abort returns element" `Quick test_abort_returns_element;
    Alcotest.test_case "error queue after n aborts" `Quick
      test_error_queue_after_n_aborts;
    Alcotest.test_case "per-call error queue" `Quick
      test_error_queue_override_per_call;
    Alcotest.test_case "retry counter durable" `Quick test_retry_counter_durable;
  ]

let persistence =
  [
    Alcotest.test_case "committed enqueue survives crash" `Quick
      test_committed_enqueue_survives_crash;
    Alcotest.test_case "committed dequeue survives crash" `Quick
      test_committed_dequeue_survives_crash;
    Alcotest.test_case "uncommitted dequeue returns after crash" `Quick
      test_uncommitted_dequeue_returns_after_crash;
    Alcotest.test_case "prepared dequeue stays locked" `Quick
      test_prepared_dequeue_stays_locked_after_crash;
    Alcotest.test_case "prepared enqueue applies on commit" `Quick
      test_prepared_enqueue_applies_on_commit_after_crash;
    Alcotest.test_case "checkpoint equivalence" `Quick test_checkpoint_equivalence;
    QCheck_alcotest.to_alcotest prop_no_loss_no_dup;
  ]

let registration =
  [
    Alcotest.test_case "tags roundtrip crash" `Quick test_registration_tags_roundtrip;
    Alcotest.test_case "tag atomic with op" `Quick test_tag_atomic_with_op;
    Alcotest.test_case "dequeue tag + rereceive" `Quick test_dequeue_tag_and_rereceive;
    Alcotest.test_case "unstable registration" `Quick
      test_unstable_registration_keeps_no_tags;
    Alcotest.test_case "deregister" `Quick test_deregister;
    Alcotest.test_case "dequeue copy by reference survives replay" `Quick
      test_dequeue_copy_by_reference_survives_replay;
    Alcotest.test_case "dequeue copy survives checkpoint" `Quick
      test_dequeue_copy_survives_checkpoint;
    Alcotest.test_case "volatile dequeue copy survives crash" `Quick
      test_volatile_dequeue_copy_survives_crash;
    Alcotest.test_case "spliced copy survives checkpoint" `Quick
      test_spliced_copy_survives_checkpoint;
  ]

let features =
  [
    Alcotest.test_case "volatile queue" `Quick
      test_volatile_queue_lost_on_crash_and_unlogged;
    Alcotest.test_case "volatile queue survives a checkpoint" `Quick
      test_volatile_queue_survives_checkpoint;
    Alcotest.test_case "stable queue writes only its log" `Quick
      test_stable_queue_writes_only_its_log;
    Alcotest.test_case "redirect" `Quick test_redirect;
    Alcotest.test_case "redirect into stable survives crash" `Quick
      test_redirect_into_stable_survives_crash;
    Alcotest.test_case "redirect into volatile unlogged" `Quick
      test_redirect_into_volatile_unlogged;
    Alcotest.test_case "volatile spill into stable error queue" `Quick
      test_volatile_spill_into_stable_error_queue;
    Alcotest.test_case "alert threshold" `Quick test_alert_threshold;
    Alcotest.test_case "trigger join" `Quick test_trigger_join;
    Alcotest.test_case "trigger replay deterministic" `Quick
      test_trigger_replay_deterministic;
    Alcotest.test_case "kill ready element" `Quick test_kill_ready_element;
    Alcotest.test_case "kill locked element aborts holder" `Quick
      test_kill_locked_element_aborts_holder;
    Alcotest.test_case "read (incl. locked)" `Quick test_read_and_read_locked;
    Alcotest.test_case "tagged ops log the payload once" `Quick
      test_tagged_ops_log_the_payload_once;
  ]

let blocking =
  [
    Alcotest.test_case "blocking dequeue" `Quick test_blocking_dequeue;
    Alcotest.test_case "dequeue timeout" `Quick test_dequeue_timeout;
    Alcotest.test_case "dequeue set" `Quick test_dequeue_set;
    Alcotest.test_case "set waiter leaves no lost wake-up" `Quick
      test_set_waiter_leaves_no_lost_wakeup;
    Alcotest.test_case "filtered waiters: block" `Quick
      (test_filtered_waiters ~deq:single Qm.Block);
    Alcotest.test_case "filtered waiters: timeout" `Quick
      (test_filtered_waiters ~deq:single (Qm.Timeout 5.0));
    Alcotest.test_case "filtered waiters: set" `Quick
      (test_filtered_waiters ~deq:set_of_one Qm.Block);
    Alcotest.test_case "strict fifo serializes" `Quick test_strict_fifo_serializes;
    Alcotest.test_case "set holds one strict lock" `Quick test_set_holds_one_strict_lock;
    Alcotest.test_case "abort stale workspaces" `Quick test_abort_stale;
    Alcotest.test_case "auto-commit exception aborts" `Quick
      test_auto_commit_exception_aborts;
    Alcotest.test_case "stop/start queue" `Quick test_stop_start_queue;
    Alcotest.test_case "destroy queue" `Quick test_destroy_queue;
    Alcotest.test_case "alter queue" `Quick test_alter_queue;
    Alcotest.test_case "janitor abort is not a failed delivery" `Quick
      test_stale_abort_is_not_a_failed_delivery;
    Alcotest.test_case "stale returns bounded" `Quick test_stale_returns_bounded;
  ]

let () =
  Alcotest.run "rrq-qm"
    [
      ("basics", basics);
      ("persistence", persistence);
      ("registration", registration);
      ("features", features);
      ("blocking", blocking);
    ]
