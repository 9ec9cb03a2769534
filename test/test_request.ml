(* End-to-end tests of the System Model (fig. 4/5): clerk, queues, server,
   exactly-once request processing under crashes and message loss. *)

module Sched = Rrq_sim.Sched
module Rng = Rrq_util.Rng
module Net = Rrq_net.Net
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Server = Rrq_core.Server
module Envelope = Rrq_core.Envelope
module Shard = Rrq_core.Shard
module Crashpoint = Rrq_sim.Crashpoint
module Audit = Rrq_check.Audit
module World = Rrq_check.World
module H = Rrq_test_support.Sim_harness

(* A standard rig: one backend site with a request queue and a server
   whose handler (by default) increments per-rid and total counters, and
   one bare client node. *)
type rig = { backend : Site.t; client_node : Net.node }

let counting_handler = Audit.counting_handler

let make_rig ?(drop_rate = 0.0) ?(server_threads = 1) ?(stale_timeout = 3.0)
    ?(handler = counting_handler) s =
  let net = Net.create ~drop_rate s (Rng.create 42) in
  let world =
    World.build net
      {
        (World.single "backend") with
        stale_timeout;
        server = Some { World.queue = "req"; threads = server_threads; handler };
      }
  in
  { backend = World.site world "backend"; client_node = Net.make_node net "client" }

let exec_count rig = Audit.exec_count rig.backend

let connect rig ?(client_id = "alice") () =
  Clerk.connect ~client_node:rig.client_node ~system:"backend"
    ~client_id ~req_queue:"req" ()

(* --- happy path -------------------------------------------------------- *)

let test_happy_path () =
  let done_ = ref false in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, info = connect rig () in
               Alcotest.(check bool) "fresh session" true
                 (info.Clerk.s_rid = None && info.Clerk.r_rid = None);
               for i = 1 to 5 do
                 let rid = Printf.sprintf "r%d" i in
                 ignore (Clerk.send clerk ~rid (Printf.sprintf "work-%d" i));
                 match Clerk.receive clerk () with
                 | Some reply ->
                   (* Request-Reply Matching *)
                   Alcotest.(check string) "reply matches request" rid
                     reply.Envelope.rid;
                   Alcotest.(check string) "reply body"
                     (Printf.sprintf "done:work-%d" i)
                     reply.Envelope.body
                 | None -> Alcotest.fail "no reply"
               done;
               Clerk.disconnect clerk;
               for i = 1 to 5 do
                 Alcotest.(check int) "exactly once" 1
                   (exec_count rig (Printf.sprintf "r%d" i))
               done;
               done_ := true)))
  in
  Alcotest.(check bool) "completed" true !done_

let test_two_clients_private_reply_queues () =
  let done_ = ref 0 in
  let _ =
    H.run (fun s ->
        let rig = make_rig s ~server_threads:2 in
        let spawn_client name =
          ignore
            (Sched.spawn s ~group:"client" ~name (fun () ->
                 let clerk, _ = connect rig ~client_id:name () in
                 for i = 1 to 3 do
                   let rid = Printf.sprintf "%s-%d" name i in
                   match Clerk.transceive clerk ~rid ("b" ^ rid) with
                   | Some reply ->
                     Alcotest.(check string)
                       (name ^ " gets own reply") rid reply.Envelope.rid
                   | None -> Alcotest.fail "no reply"
                 done;
                 incr done_))
        in
        spawn_client "alice";
        spawn_client "bob")
  in
  Alcotest.(check int) "both clients done" 2 !done_

(* --- failures ----------------------------------------------------------- *)

let test_server_crash_exactly_once () =
  (* Crash the backend twice while a client pushes 10 requests through.
     Every request must execute exactly once and every reply must reach the
     client. *)
  let done_ = ref false in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        Sched.at s 2.0 (fun () -> Site.crash_restart rig.backend ~after:1.5);
        Sched.at s 9.0 (fun () -> Site.crash_restart rig.backend ~after:1.5);
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ = connect rig () in
               for i = 1 to 10 do
                 let rid = Printf.sprintf "r%d" i in
                 ignore (Clerk.send clerk ~rid ("w" ^ string_of_int i));
                 (* A crash before this Send can undo the last Receive:
                    that reply comes back once, as a stray. *)
                 let rec get ~strays =
                   match Clerk.receive clerk ~timeout:3.0 () with
                   | Some reply
                     when reply.Envelope.rid = Printf.sprintf "r%d" (i - 1)
                          && strays = 0 ->
                     get ~strays:1
                   | Some reply -> reply
                   | None -> get ~strays
                 in
                 let reply = get ~strays:0 in
                 Alcotest.(check string) "matching reply" rid reply.Envelope.rid;
                 Sched.sleep 1.0
               done;
               for i = 1 to 10 do
                 Alcotest.(check int)
                   (Printf.sprintf "r%d exactly once" i)
                   1
                   (exec_count rig (Printf.sprintf "r%d" i))
               done;
               done_ := true)))
  in
  Alcotest.(check bool) "completed" true !done_

let test_message_loss_exactly_once () =
  (* 20% of messages vanish; the tagged-retry protocol still delivers
     exactly-once processing and at-least-once replies. *)
  let done_ = ref false in
  let _ =
    H.run (fun s ->
        let rig = make_rig ~drop_rate:0.2 s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ = connect rig () in
               for i = 1 to 15 do
                 let rid = Printf.sprintf "r%d" i in
                 ignore (Clerk.send clerk ~rid ("w" ^ string_of_int i));
                 let rec get n =
                   if n > 50 then Alcotest.fail "reply never arrived";
                   match Clerk.receive clerk ~timeout:2.0 () with
                   | Some reply -> reply
                   | None -> get (n + 1)
                 in
                 let reply = get 0 in
                 Alcotest.(check string) "matching reply" rid reply.Envelope.rid
               done;
               for i = 1 to 15 do
                 Alcotest.(check int)
                   (Printf.sprintf "r%d exactly once" i)
                   1
                   (exec_count rig (Printf.sprintf "r%d" i))
               done;
               done_ := true)))
  in
  Alcotest.(check bool) "completed" true !done_

let test_client_crash_resynchronization () =
  (* The client dies after Send but before Receive. Its next incarnation
     reconnects, learns s_rid <> r_rid, so it must Receive (fig. 2, first
     branch) — the reply is waiting and nothing executes twice. *)
  let verdict = ref "" in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice-1" (fun () ->
               let clerk, _ = connect rig () in
               ignore (Clerk.send clerk ~rid:"r1" "important")));
        (* incarnation 1 is killed right after send *)
        Sched.at s 1.0 (fun () -> Sched.kill_group s "client");
        Sched.at s 3.0 (fun () ->
            ignore
              (Sched.spawn s ~group:"client2" ~name:"alice-2" (fun () ->
                   let clerk, info = connect rig () in
                   match (info.Clerk.s_rid, info.Clerk.r_rid) with
                   | Some "r1", None ->
                     (* must receive, not resend *)
                     (match Clerk.receive clerk () with
                     | Some reply when reply.Envelope.rid = "r1" ->
                       if exec_count rig "r1" = 1 then verdict := "ok"
                       else verdict := "executed twice"
                     | Some _ -> verdict := "wrong reply"
                     | None -> verdict := "no reply")
                   | _ -> verdict := "bad connect info"))))
  in
  Alcotest.(check string) "resync verdict" "ok" !verdict

let test_client_crash_after_receive_rereceive () =
  (* The client receives the reply, then dies before processing it. The new
     incarnation sees s_rid = r_rid and uses Rereceive to fetch the retained
     copy (fig. 2, second branch). *)
  let verdict = ref "" in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice-1" (fun () ->
               let clerk, _ = connect rig () in
               ignore (Clerk.send clerk ~rid:"r1" "important");
               ignore (Clerk.receive clerk ~ckpt:"ticket-0" ());
               (* dies here, before processing the reply *)
               Sched.sleep 1000.0));
        Sched.at s 5.0 (fun () -> Sched.kill_group s "client");
        Sched.at s 6.0 (fun () ->
            ignore
              (Sched.spawn s ~group:"client2" ~name:"alice-2" (fun () ->
                   let clerk, info = connect rig () in
                   match (info.Clerk.s_rid, info.Clerk.r_rid) with
                   | Some "r1", Some "r1" ->
                     Alcotest.(check (option string)) "checkpoint returned"
                       (Some "ticket-0") info.Clerk.ckpt;
                     (match Clerk.rereceive clerk with
                     | Some reply when reply.Envelope.rid = "r1" ->
                       verdict := "ok"
                     | Some _ -> verdict := "wrong reply"
                     | None -> verdict := "no retained copy")
                   | _ -> verdict := "bad connect info"))))
  in
  Alcotest.(check string) "rereceive verdict" "ok" !verdict

let test_poison_request_lands_in_error_queue () =
  (* A request whose handler always fails must not cycle forever: after the
     retry limit it moves to the error queue and the server moves on. *)
  let done_ = ref false in
  let handler site txn env =
    if env.Envelope.body = "poison" then failwith "cannot process"
    else counting_handler site txn env
  in
  let _ =
    H.run (fun s ->
        let rig = make_rig ~handler s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ = connect rig () in
               ignore (Clerk.send clerk ~rid:"bad" "poison");
               ignore (Clerk.send clerk ~rid:"good" "fine");
               (match Clerk.receive clerk ~timeout:10.0 () with
               | Some reply ->
                 Alcotest.(check string) "good request still served" "good"
                   reply.Envelope.rid
               | None -> Alcotest.fail "good request starved");
               Alcotest.(check int) "poison parked in error queue" 1
                 (Qm.depth (Site.qm rig.backend) "req.err");
               Alcotest.(check int) "poison never committed" 0
                 (exec_count rig "bad");
               done_ := true)))
  in
  Alcotest.(check bool) "completed" true !done_

(* The envelope is the element: its header rides in the element's
   properties and its body is the payload, so the body the handler sees
   and the one Receive returns are the very string the client sent. *)
let test_body_travels_uncopied () =
  let done_ = ref false in
  let seen = ref "" in
  let handler _site _txn env =
    seen := env.Envelope.body;
    Server.Reply env.Envelope.body
  in
  let _ =
    H.run (fun s ->
        let rig = make_rig ~handler s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ = connect rig () in
               let body = String.make 4096 'b' in
               ignore (Clerk.send clerk ~rid:"r1" body);
               (match Clerk.receive clerk () with
               | Some reply ->
                 Alcotest.(check bool) "handler sees the sent string" true
                   (!seen == body);
                 Alcotest.(check bool) "receive returns the sent string" true
                   (reply.Envelope.body == body)
               | None -> Alcotest.fail "no reply");
               done_ := true)))
  in
  Alcotest.(check bool) "completed" true !done_

(* An element with no envelope header is poison like a failing request:
   after the retry limit it is in the error queue, and the server goes on. *)
let test_headerless_element_lands_in_error_queue () =
  let done_ = ref false in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let qm = Site.qm rig.backend in
               let h, _ =
                 Qm.register qm ~queue:"req" ~registrant:"raw" ~stable:false
               in
               ignore
                 (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "no header"));
               let clerk, _ = connect rig () in
               (match Clerk.transceive clerk ~rid:"good" ~timeout:10.0 "fine" with
               | Some reply ->
                 Alcotest.(check string) "good request still served" "good"
                   reply.Envelope.rid
               | None -> Alcotest.fail "good request starved");
               (match Qm.elements qm "req.err" with
               | [ el ] ->
                 Alcotest.(check string) "the headerless element" "no header"
                   el.Rrq_qm.Element.payload
               | els ->
                 Alcotest.failf "%d elements in the error queue" (List.length els));
               done_ := true)))
  in
  Alcotest.(check bool) "completed" true !done_

let test_cancel_waiting_request () =
  (* Cancellation (paper 7): kill a request still sitting in the queue. *)
  let verdict = ref "" in
  let _ =
    H.run (fun s ->
        (* no server: requests stay queued *)
        let net = Net.create s (Rng.create 1) in
        let backend_node = Net.make_node net "backend" in
        let backend =
          Site.create ~queues:[ ("req", Qm.default_attrs) ] backend_node
        in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node:(Net.make_node net "client")
                   ~system:"backend" ~client_id:"alice" ~req_queue:"req" ()
               in
               ignore (Clerk.send clerk ~rid:"r1" "todo");
               Alcotest.(check int) "queued" 1 (Qm.depth (Site.qm backend) "req");
               let cancelled = Clerk.cancel_last_request clerk in
               if cancelled && Qm.depth (Site.qm backend) "req" = 0 then
                 verdict := "ok"
               else verdict := "not cancelled")))
  in
  Alcotest.(check string) "cancel verdict" "ok" !verdict

let test_load_sharing_many_servers () =
  (* Many dequeuers on one queue, many concurrent client threads (the
     paper's client-concurrency extension: one registrant per thread). All
     requests processed exactly once. *)
  let done_ = ref 0 in
  let _ =
    H.run (fun s ->
        let rig = make_rig ~server_threads:4 s in
        for i = 1 to 12 do
          ignore
            (Sched.spawn s ~group:"client" ~name:(Printf.sprintf "cl%d" i)
               (fun () ->
                 let clerk, _ =
                   connect rig ~client_id:(Printf.sprintf "alice#%d" i) ()
                 in
                 let rid = Printf.sprintf "r%d" i in
                 match Clerk.transceive clerk ~rid ("w" ^ rid) with
                 | Some reply ->
                   Alcotest.(check string) "own reply" rid reply.Envelope.rid;
                   incr done_
                 | None -> Alcotest.fail "no reply"))
        done)
  in
  Alcotest.(check int) "all threads done" 12 !done_;
  ()

(* Deterministic sweep: crash the backend at each offset across the whole
   exchange; 3 requests must execute exactly once for every crash time. *)
let test_server_crash_time_sweep () =
  List.iter
    (fun crash_at ->
      let done_ = ref false in
      let _ =
        H.run (fun s ->
            let rig = make_rig s in
            Sched.at s crash_at (fun () ->
                Site.crash_restart rig.backend ~after:1.0);
            ignore
              (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
                   let clerk, _ = connect rig () in
                   for i = 1 to 3 do
                     let rid = Printf.sprintf "r%d" i in
                     (try ignore (Clerk.send clerk ~rid "w")
                      with Clerk.Unavailable _ ->
                        Alcotest.fail "send gave up");
                     let rec get n =
                       if n > 30 then Alcotest.fail "reply never arrived"
                       else begin
                         match Clerk.receive clerk ~timeout:2.0 () with
                         | Some reply ->
                           Alcotest.(check string) "matching" rid
                             reply.Envelope.rid
                         | None -> get (n + 1)
                       end
                     in
                     get 0
                   done;
                   for i = 1 to 3 do
                     Alcotest.(check int)
                       (Printf.sprintf "crash@%.3f: r%d exactly once" crash_at i)
                       1
                       (exec_count rig (Printf.sprintf "r%d" i))
                   done;
                   done_ := true)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "crash@%.3f completed" crash_at)
        true !done_)
    [ 0.005; 0.012; 0.02; 0.03; 0.045; 0.06; 0.08; 0.12; 0.2; 0.5; 1.0 ]

(* --- sharding -------------------------------------------------------- *)

(* Four shards and no pins: each client's request and reply queue share a
   shard, so the server's dequeue-process-enqueue commits locally. A
   remote 2PC participant would show as a [tm.staged:*] or [tm.prepared:*]
   hit. *)
let test_sharded_reply_is_local () =
  let map =
    { Shard.version = 1; shards = [ "s0"; "s1"; "s2"; "s3" ]; backups = [];
      sharded_queues = [ "req" ]; pins = [] }
  in
  List.iter
    (fun client_id ->
      let reply = ref None in
      Crashpoint.reset ();
      Fun.protect ~finally:Crashpoint.disable (fun () ->
          let _ =
            H.run (fun s ->
                let net = Net.create s (Rng.create 42) in
                ignore
                  (World.build net
                     {
                       (World.single "s0") with
                       repos = List.map (fun n -> World.Single n) map.Shard.shards;
                       shards = Some { World.map; untag_forward_bug = false };
                       server = World.counting_server 1;
                     });
                let client_node = Net.make_node net "client" in
                ignore
                  (Sched.spawn s ~group:"client" ~name:client_id (fun () ->
                       let clerk, _ =
                         Clerk.connect ~client_node ~system:"s0" ~shard_map:map
                           ~client_id ~req_queue:"req" ()
                       in
                       ignore (Clerk.send clerk ~rid:"r1" "work");
                       reply := Clerk.receive clerk ())))
          in
          Alcotest.(check (option string))
            (client_id ^ ": reply") (Some "r1")
            (Option.map (fun e -> e.Envelope.rid) !reply);
          let remote =
            List.filter
              (fun (site, _) ->
                String.starts_with ~prefix:"tm.staged:" site
                || String.starts_with ~prefix:"tm.prepared:" site)
              (Crashpoint.hit_counts ())
          in
          Alcotest.(check (list (pair string int)))
            (client_id ^ ": no remote participant") [] remote))
    [ "c0"; "c1"; "c2"; "c3" ]

(* --- the lazy Receive ---------------------------------------------------- *)

module Node_log = Rrq_txn.Node_log
module Group_commit = Rrq_wal.Group_commit
module Ha = Rrq_core.Ha
module Tag = Rrq_core.Tag

let reply_props ~client rid =
  let env =
    Envelope.make ~rid ~client_id:client ~reply_node:"backend"
      ~reply_queue:(Shard.reply_queue client) ~kind:"reply" "done"
  in
  Envelope.props env

(* A server's reply transaction. *)
let put_reply site ~client rid =
  let qm = Site.qm site in
  let h, _ =
    Qm.register qm ~queue:(Shard.reply_queue client) ~registrant:"srv" ~stable:false
  in
  ignore
    (Qm.auto_commit qm (fun id ->
         Qm.enqueue qm id h ~props:(reply_props ~client rid) "done"))

let receive_op ~client rid =
  Site.Q_dequeue
    {
      registrant = client;
      queue = Shard.reply_queue client;
      tag = Some (Tag.receive ~rid:(Some rid) ~ckpt:None);
      filter = None;
      timeout = Some 2.0;
    }

(* The reply's transaction is durable (and, on a Sync pair, shipped) when
   the Receive returns: the first reply is put while the Receive waits.
   That Receive is served in the test's own fiber, so the check runs the
   instant it returns. The Receive's own record is not durable, until the
   next Send forces the log: the second reply is durable before its
   Receive starts. *)
let test_receive_waits_for_its_reply_only () =
  List.iter
    (fun (label, repo, system, backups) ->
      let checked = ref false in
      let _ =
        H.run (fun s ->
            let net = Net.create ~latency:0.005 s (Rng.create 42) in
            let world =
              World.build net { (World.single "backend") with repos = [ repo ]; sync_latency = 0.005 }
            in
            let client_node = Net.make_node net "client" in
            ignore
              (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
                   while not (World.ready world) do Sched.sleep 0.1 done;
                   let site = World.site world system in
                   let log () = Site.log site in
                   let clerk, _ =
                     Clerk.connect ~client_node ~system ~backups ~client_id:"alice"
                       ~req_queue:"req" ()
                   in
                   ignore (Clerk.send clerk ~rid:"r1" "work");
                   let producer = ref max_int in
                   ignore
                     (Sched.fork ~name:"producer" (fun () ->
                          Sched.sleep 0.1;
                          producer := Node_log.tail (log ()) + 1;
                          put_reply site ~client:"alice" "r1"));
                   (match Site.clerk_service site (receive_op ~client:"alice" "r1") with
                   | Site.R_element (Some _) -> ()
                   | _ -> Alcotest.fail (label ^ ": no reply"));
                   Alcotest.(check bool)
                     (label ^ ": its transaction durable") true
                     (Node_log.durable (log ()) >= !producer);
                   if backups <> [] then
                     Alcotest.(check bool)
                       (label ^ ": and shipped") true
                       (Group_commit.shipped_lsn (Node_log.group_commit (log ()))
                       >= !producer);
                   ignore (Clerk.send clerk ~rid:"r2" "work");
                   put_reply site ~client:"alice" "r2";
                   ignore (Clerk.receive clerk ~timeout:2.0 ());
                   let own = Node_log.tail (log ()) in
                   Alcotest.(check bool)
                     (label ^ ": the Receive's record not yet durable") true
                     (Node_log.durable (log ()) < own);
                   ignore (Clerk.send clerk ~rid:"r3" "work");
                   Alcotest.(check bool)
                     (label ^ ": durable once the next Send is acknowledged") true
                     (Node_log.durable (log ()) >= own);
                   checked := true)))
      in
      Alcotest.(check bool) (label ^ ": ran") true !checked)
    [
      ("single", World.Single "backend", "backend", []);
      ( "sync pair",
        World.Pair
          { World.primary = "p"; standby = "b"; mode = Ha.Sync; sync_latency = 0.005; cold = None },
        "p",
        [ "b" ] );
    ]

(* A crash after the Receive and before the next Send undoes the Receive:
   the same reply (same eid) comes back, as a stray before the next
   request's reply. *)
let test_crash_before_send_redelivers_a_stray () =
  let seen = ref [] in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ = connect rig () in
               let receive () =
                 match Clerk.receive clerk ~timeout:3.0 () with
                 | Some env -> seen := (env.Envelope.rid, Clerk.reply_eid clerk) :: !seen
                 | None -> Alcotest.fail "no reply"
               in
               ignore (Clerk.send clerk ~rid:"r1" "w1");
               receive ();
               Site.crash_restart rig.backend ~after:0.5;
               Sched.sleep 1.0;
               ignore (Clerk.send clerk ~rid:"r2" "w2");
               receive ();
               receive ())))
  in
  match List.rev !seen with
  | [ ("r1", e1); ("r1", e1'); ("r2", _) ] ->
    Alcotest.(check (option int64)) "the same reply" e1 e1'
  | l ->
    Alcotest.fail
      ("receipts: " ^ String.concat ", " (List.map fst l))

(* A retried Receive answers with the element its first attempt took only
   when that is a reply to its rid: after a stray, it dequeues afresh. *)
let test_stray_is_not_a_retry () =
  let got = ref [] in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"c" (fun () ->
               let site = rig.backend in
               ignore (Site.clerk_service site (Site.Q_create_queue "reply.c"));
               put_reply site ~client:"c" "r0";
               put_reply site ~client:"c" "r1";
               for _ = 1 to 2 do
                 match Site.clerk_service site (receive_op ~client:"c" "r1") with
                 | Site.R_element (Some v) ->
                   got :=
                     (Envelope.of_parts ~props:v.Site.v_props v.Site.v_payload).Envelope.rid
                     :: !got
                 | _ -> got := "none" :: !got
               done)))
  in
  Alcotest.(check (list string)) "r0, then r1" [ "r0"; "r1" ] (List.rev !got)

(* The clerk's map (v2) puts its requests with its reply queue on s1,
   whose router still holds v1 and relays the Send to s0. The clerk sends
   no fence, since under its map the Send went to the Receive's shard, so
   the relaying router forces its own log before relaying: the Receive is
   durable once the Send is acknowledged. *)
let test_relay_forces_the_receive () =
  let v1 =
    {
      Shard.version = 1;
      shards = [ "s0"; "s1" ];
      backups = [];
      sharded_queues = [ "req" ];
      pins = [ ("req#alice", "s0"); ("reply.alice", "s1") ];
    }
  in
  let v2 = { v1 with version = 2; pins = [ ("req#alice", "s1"); ("reply.alice", "s1") ] } in
  let verdict = ref None in
  let _ =
    H.run (fun s ->
        let net = Net.create ~latency:0.005 s (Rng.create 42) in
        let world =
          World.build net
            {
              (World.single "s0") with
              repos = [ World.Single "s0"; World.Single "s1" ];
              shards = Some { World.map = v1; untag_forward_bug = false };
            }
        in
        let client_node = Net.make_node net "client" in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               while not (World.ready world) do Sched.sleep 0.1 done;
               let s1 = World.site world "s1" in
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"s1" ~shard_map:v2
                   ~client_id:"alice" ~req_queue:"req" ()
               in
               put_reply s1 ~client:"alice" "r0";
               ignore (Clerk.receive clerk ~timeout:2.0 ());
               let log = Site.log s1 in
               let own = Node_log.tail log in
               let undurable = Node_log.durable log < own in
               ignore (Clerk.send clerk ~rid:"r1" "w1");
               verdict := Some (undurable, Node_log.durable log >= own))))
  in
  Alcotest.(check (option (pair bool bool)))
    "Receive undurable, then durable at the relayed Send's ack" (Some (true, true))
    !verdict

(* Only a client's own reply queue is dequeued lazily. A dequeue from any
   other queue, which other dequeuers may share (another client's reply
   queue among them), commits with a force of its own, so its element
   cannot come back after another dequeuer moved on. *)
let test_other_queue_dequeue_forces () =
  let verdicts = ref [] in
  let _ =
    H.run (fun s ->
        let rig = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"c" (fun () ->
               let site = rig.backend in
               let qm = Site.qm site and log = Site.log site in
               List.iter
                 (fun (registrant, queue) ->
                   ignore (Site.clerk_service site (Site.Q_create_queue queue));
                   let h, _ = Qm.register qm ~queue ~registrant:"srv" ~stable:false in
                   ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "x"));
                   (match
                      Site.clerk_service site
                        (Site.Q_dequeue
                           { registrant; queue; tag = None; filter = None; timeout = None })
                    with
                   | Site.R_element (Some _) -> ()
                   | _ -> Alcotest.fail ("nothing dequeued from " ^ queue));
                   verdicts :=
                     ( queue ^ " by " ^ registrant,
                       Node_log.durable log >= Node_log.tail log )
                     :: !verdicts)
                 [ ("c", "shared"); ("d", "reply.c"); ("c", "reply.c") ])))
  in
  Alcotest.(check (list (pair string bool)))
    "dequeue durable when answered"
    [ ("shared by c", true); ("reply.c by d", true); ("reply.c by c", false) ]
    (List.rev !verdicts)

(* The reply queue pinned to another shard than the requests: the Send
   executes elsewhere, so the clerk fences the Receive's shard before the
   Send is acknowledged. The server takes half a second, so no reply
   transaction forces that shard meanwhile. Without the fence (the
   designed anomaly) the Receive is still undurable. *)
let test_cross_shard_fence () =
  let map =
    {
      Shard.version = 1;
      shards = [ "s0"; "s1" ];
      backups = [];
      sharded_queues = [ "req" ];
      pins = [ ("req#alice", "s0"); ("reply.alice", "s1") ];
    }
  in
  let slow site txn env =
    Sched.sleep 0.5;
    Audit.counting_handler site txn env
  in
  List.iter
    (fun unfenced_bug ->
      let verdict = ref None in
      let _ =
        H.run (fun s ->
            let net = Net.create ~latency:0.005 s (Rng.create 42) in
            let world =
              World.build net
                {
                  (World.single "s0") with
                  repos = [ World.Single "s0"; World.Single "s1" ];
                  shards = Some { World.map; untag_forward_bug = false };
                  server = Some { World.queue = "req"; threads = 1; handler = slow };
                }
            in
            let client_node = Net.make_node net "client" in
            ignore
              (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
                   let clerk, _ =
                     Clerk.connect ~client_node ~system:"s0" ~shard_map:map
                       ~client_id:"alice" ~req_queue:"req" ~unfenced_bug ()
                   in
                   ignore (Clerk.send clerk ~rid:"r1" "w1");
                   ignore (Clerk.receive clerk ~timeout:3.0 ());
                   let log = Site.log (World.site world "s1") in
                   let own = Node_log.tail log in
                   ignore (Clerk.send clerk ~rid:"r2" "w2");
                   verdict := Some (Node_log.durable log >= own))))
      in
      Alcotest.(check (option bool))
        (Printf.sprintf "unfenced_bug=%b: Receive durable at the Send's ack" unfenced_bug)
        (Some (not unfenced_bug)) !verdict)
    [ false; true ]

let suite =
  [
    Alcotest.test_case "happy path" `Quick test_happy_path;
    Alcotest.test_case "two clients, private reply queues" `Quick
      test_two_clients_private_reply_queues;
    Alcotest.test_case "server crashes: exactly-once" `Quick
      test_server_crash_exactly_once;
    Alcotest.test_case "message loss: exactly-once" `Quick
      test_message_loss_exactly_once;
    Alcotest.test_case "client crash: resynchronize + receive" `Quick
      test_client_crash_resynchronization;
    Alcotest.test_case "client crash: rereceive retained copy" `Quick
      test_client_crash_after_receive_rereceive;
    Alcotest.test_case "poison request -> error queue" `Quick
      test_poison_request_lands_in_error_queue;
    Alcotest.test_case "body travels uncopied" `Quick test_body_travels_uncopied;
    Alcotest.test_case "headerless element -> error queue" `Quick
      test_headerless_element_lands_in_error_queue;
    Alcotest.test_case "cancel waiting request" `Quick test_cancel_waiting_request;
    Alcotest.test_case "load sharing" `Quick test_load_sharing_many_servers;
    Alcotest.test_case "sharded reply commits locally" `Quick
      test_sharded_reply_is_local;
    Alcotest.test_case "server crash-time sweep" `Quick
      test_server_crash_time_sweep;
    Alcotest.test_case "lazy Receive: waits for its reply's transaction only" `Quick
      test_receive_waits_for_its_reply_only;
    Alcotest.test_case "lazy Receive: a crash before the next Send gives a stray"
      `Quick test_crash_before_send_redelivers_a_stray;
    Alcotest.test_case "a stray is not a retried Receive" `Quick test_stray_is_not_a_retry;
    Alcotest.test_case "lazy Receive: the cross-shard fence" `Quick test_cross_shard_fence;
    Alcotest.test_case "lazy Receive: only from its own reply queue" `Quick
      test_other_queue_dequeue_forces;
    Alcotest.test_case "lazy Receive: a relaying router forces it" `Quick
      test_relay_forces_the_receive;
  ]

let () = Alcotest.run "rrq-request" [ ("system-model", suite) ]
