(* Edge cases of the client protocol: the remaining fig. 2 recovery
   branches, one-way sends, transceive, and identity-based cancellation
   across forwarded queues. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Server = Rrq_core.Server
module Session = Rrq_core.Session
module Stream_clerk = Rrq_core.Stream_clerk
module Forwarder = Rrq_core.Forwarder
module Envelope = Rrq_core.Envelope
module World = Rrq_check.World
module H = Rrq_test_support.Sim_harness

let make_rig s =
  let net = Net.create s (Rng.create 88) in
  let handler site txn env =
    ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) ("exec:" ^ env.Envelope.rid) 1);
    Server.Reply ("done:" ^ env.Envelope.rid)
  in
  let server = Some { World.queue = "req"; threads = 1; handler } in
  let world = World.build net { (World.single "backend") with server } in
  (World.site world "backend", Net.make_node net "client")

(* fig. 2, branch 2, sub-case "already processed": the client crashed after
   printing the ticket but before the next Send. The device (ticket count)
   disagrees with the checkpoint stored at Receive time, so the new
   incarnation must NOT reprocess. *)
let test_session_already_processed_branch () =
  let outcome = ref None in
  let tickets = ref 0 in
  let _ =
    H.run (fun s ->
        let _, client_node = make_rig s in
        ignore
          (Sched.spawn s ~group:"inc1" ~name:"alice-1" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"req" ()
               in
               ignore (Clerk.send clerk ~rid:"r1" "job");
               (* checkpoint the device state (0 tickets) with the Receive *)
               (match Clerk.receive clerk ~ckpt:(string_of_int !tickets) () with
               | Some _ -> incr tickets (* the ticket prints *)
               | None -> Alcotest.fail "no reply");
               (* crash before Send r2 *)
               Sched.sleep 1000.0));
        Sched.at s 5.0 (fun () -> Sched.kill_group s "inc1");
        Sched.at s 6.0 (fun () ->
            ignore
              (Sched.spawn s ~group:"inc2" ~name:"alice-2" (fun () ->
                   let clerk, _ =
                     Clerk.connect ~client_node ~system:"backend"
                       ~client_id:"alice" ~req_queue:"req" ()
                   in
                   let config =
                     {
                       Session.default_config with
                       next_request = (fun _ -> None) (* no new work *);
                       process_reply = (fun _ -> incr tickets);
                       device_state = (fun () -> string_of_int !tickets);
                       resume_seq = (fun () -> !tickets + 1);
                     }
                   in
                   outcome := Some (Session.run clerk config)))))
  in
  (match !outcome with
  | Some o ->
    Alcotest.(check bool) "already-processed branch taken" true
      (o.Session.resynced = `Already_processed)
  | None -> Alcotest.fail "second incarnation did not run");
  Alcotest.(check int) "ticket printed exactly once" 1 !tickets

let test_send_oneway_and_receive () =
  let got = ref None in
  let _ =
    H.run (fun s ->
        let _, client_node = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"req" ()
               in
               Clerk.send_oneway clerk ~rid:"r1" "fire-and-forget";
               got := Clerk.receive clerk ~timeout:10.0 ())))
  in
  match !got with
  | Some reply ->
    Alcotest.(check string) "reply arrives without a send ack" "r1"
      reply.Envelope.rid
  | None -> Alcotest.fail "no reply"

let test_transceive () =
  let _ =
    H.run (fun s ->
        let backend, client_node = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"req" ()
               in
               (match Clerk.transceive clerk ~rid:"r1" "job" with
               | Some reply ->
                 Alcotest.(check string) "combined send+receive" "done:r1"
                   reply.Envelope.body
               | None -> Alcotest.fail "no reply");
               Alcotest.(check (option string)) "executed once" (Some "1")
                 (Kvdb.committed_value (Site.kv backend) "exec:r1"))))
  in
  ()

(* Identity-based cancel: the request has been forwarded from the front
   site to the backend, so its original eid is gone; kill it by
   (client, rid) wherever it is. *)
let test_cancel_after_forwarding () =
  let verdict = ref "" in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 89) in
        let front =
          Site.create ~queues:[ ("outbox", Qm.default_attrs) ]
            (Net.make_node net "front")
        in
        let backend =
          Site.create ~queues:[ ("req", Qm.default_attrs) ]
            (Net.make_node net "backend")
        in
        (* no server: the request parks in the backend queue *)
        Forwarder.start front ~local_queue:"outbox" ~dst:"backend"
          ~remote_queue:"req";
        let client_node = Net.make_node net "client" in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"front" ~client_id:"alice"
                   ~req_queue:"outbox" ()
               in
               ignore (Clerk.send clerk ~rid:"r1" "job");
               (* wait for the forwarder to move it *)
               Sched.sleep 2.0;
               Alcotest.(check int) "moved off the front" 0
                 (Qm.depth (Site.qm front) "outbox");
               Alcotest.(check int) "parked at the backend" 1
                 (Qm.depth (Site.qm backend) "req");
               (* eid-based cancel fails: the element moved *)
               let by_eid = Clerk.cancel_last_request clerk in
               (* identity-based cancel finds it at the backend *)
               let by_identity =
                 Clerk.cancel_request_anywhere clerk
                   ~sites:[ "front"; "backend" ] ~rid:"r1"
               in
               if
                 (not by_eid) && by_identity
                 && Qm.depth (Site.qm backend) "req" = 0
               then verdict := "ok"
               else
                 verdict :=
                   Printf.sprintf "by_eid=%b by_identity=%b depth=%d" by_eid
                     by_identity
                     (Qm.depth (Site.qm backend) "req"))))
  in
  Alcotest.(check string) "cancel-anywhere verdict" "ok" !verdict

let test_kill_where_scopes_to_matching_elements () =
  H.run_fiber (fun () ->
      let disk = Rrq_storage.Disk.create "n" in
      let qm = Qm.open_qm disk ~name:"qm" in
      Qm.create_queue qm "q";
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"t" ~stable:false in
      let put rid client =
        ignore
          (Qm.auto_commit qm (fun id ->
               Qm.enqueue qm id h ~props:[ ("rid", rid); ("client", client) ] rid))
      in
      put "r1" "alice";
      put "r2" "alice";
      put "r1" "bob";
      let killed =
        Qm.kill_where qm
          (Rrq_qm.Filter.And
             (Rrq_qm.Filter.Prop_eq ("client", "alice"),
              Rrq_qm.Filter.Prop_eq ("rid", "r1")))
      in
      Alcotest.(check int) "only alice's r1" 1 killed;
      Alcotest.(check int) "two remain" 2 (Qm.depth qm "q"))

(* Strict clerks enforce the fig. 1 machine: a second Send with a fresh
   rid before receiving is a protocol violation; retrying the same Send is
   recovery and stays legal. *)
let test_strict_clerk_enforcement () =
  let verdict = ref "" in
  let _ =
    H.run (fun s ->
        let _, client_node = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"req" ~strict:true ()
               in
               ignore (Clerk.send clerk ~rid:"r1" "a");
               (* retrying the SAME rid is fine *)
               ignore (Clerk.send clerk ~rid:"r1" "a");
               (* a NEW rid before the reply is illegal *)
               (match Clerk.send clerk ~rid:"r2" "b" with
               | _ -> verdict := "violation not detected"
               | exception Clerk.Protocol_violation _ -> verdict := "caught");
               (* the legal continuation still works *)
               match Clerk.receive clerk () with
               | Some reply when reply.Envelope.rid = "r1" ->
                 ignore (Clerk.send clerk ~rid:"r2" "b");
                 (match Clerk.receive clerk () with
                 | Some _ -> Clerk.disconnect clerk
                 | None -> verdict := "second reply lost")
               | _ -> verdict := "first reply lost")))
  in
  Alcotest.(check string) "strict clerk verdict" "caught" !verdict

let test_clerk_state_tracking () =
  let states = ref [] in
  let _ =
    H.run (fun s ->
        let _, client_node = make_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"req" ()
               in
               let snap () = states := Clerk.state clerk :: !states in
               snap ();
               ignore (Clerk.send clerk ~rid:"r1" "a");
               snap ();
               ignore (Clerk.receive clerk ());
               snap ())))
  in
  Alcotest.(check (list string)) "state trajectory"
    [ "Connected"; "Req-Sent"; "Reply-Recvd" ]
    (List.rev_map Rrq_core.Client_fsm.state_to_string !states)

(* Duplicate suppression at the QM: the same tagged Send arriving twice
   (a retry after a lost acknowledgment) must enqueue exactly one element
   and return the original eid. *)
let test_duplicate_send_suppressed () =
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 90) in
        let backend =
          Site.create ~queues:[ ("req", Qm.default_attrs) ]
            (Net.make_node net "backend")
        in
        let client_node = Net.make_node net "client" in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let call msg =
                 Net.call client_node ~dst:"backend" ~service:"qm" msg
               in
               let enqueue () =
                 call
                   (Site.Q_enqueue
                      {
                        registrant = "alice";
                        queue = "req";
                        tag = Some (Rrq_core.Tag.send ~rid:"r1");
                        props = [];
                        priority = 0;
                        body = "payload";
                      })
               in
               ignore
                 (call
                    (Site.Q_register
                       { queue = "req"; registrant = "alice"; stable = true }));
               let e1 = enqueue () in
               let e2 = enqueue () in
               (match (e1, e2) with
               | Site.R_eid a, Site.R_eid b ->
                 Alcotest.(check int64) "same eid returned" a b
               | _ -> Alcotest.fail "unexpected replies");
               Alcotest.(check int) "exactly one element" 1
                 (Qm.depth (Site.qm backend) "req"))))
  in
  ()

(* Volatile queue pair (paper 11): a volatile outbox forwarded into a
   remote queue works while everything is up, and a crash loses exactly
   the not-yet-forwarded contents — the documented trade. *)
let test_volatile_queue_pair () =
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 91) in
        let vattrs = { Qm.default_attrs with durability = Qm.Volatile } in
        let front =
          Site.create ~queues:[ ("outbox", vattrs) ] (Net.make_node net "front")
        in
        let backend =
          Site.create ~queues:[ ("req", vattrs) ] (Net.make_node net "backend")
        in
        Forwarder.start front ~local_queue:"outbox" ~dst:"backend"
          ~remote_queue:"req";
        ignore
          (Sched.spawn s ~group:"client" ~name:"driver" (fun () ->
               let qm = Site.qm front in
               let h, _ =
                 Qm.register qm ~queue:"outbox" ~registrant:"d" ~stable:false
               in
               for i = 1 to 5 do
                 ignore
                   (Qm.auto_commit qm (fun id ->
                        Qm.enqueue qm id h (Printf.sprintf "m%d" i)))
               done;
               Sched.sleep 2.0;
               (* all five made it across the volatile pair *)
               Alcotest.(check int) "all forwarded" 5
                 (Qm.depth (Site.qm backend) "req");
               (* park two more, crash the front before forwarding *)
               Site.crash front;
               Site.restart front;
               Sched.sleep 1.0;
               Alcotest.(check int) "volatile outbox empty after crash" 0
                 (Qm.depth (Site.qm front) "outbox");
               Alcotest.(check int) "backend volatile copy also bounded" 5
                 (Qm.depth (Site.qm backend) "req"))))
  in
  ()

(* Request-reply matching under a crash (paper §3): the backend crashes
   right after the client's first Receive, before its next Send, which
   undoes that lazy Receive and puts r1's reply back in the queue. Each
   client must still take the reply to the request it sent: the reply
   rids it processes are r1, r2, r3. [drive ~client_node ~crash] runs
   one client and returns those rids; [crash ()] restarts the backend,
   the first time only. *)
let reply_rids drive =
  let rids = ref [] in
  let _ =
    H.run (fun s ->
        let backend, client_node = make_rig s in
        let crashed = ref false in
        let crash () =
          if not !crashed then begin
            crashed := true;
            Site.crash_restart backend ~after:1.0
          end
        in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               rids := drive ~client_node ~crash)))
  in
  !rids

let connect_alice client_node =
  fst
    (Clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
       ~req_queue:"req" ())

let test_session_matches_after_crash () =
  let rids =
    reply_rids (fun ~client_node ~crash ->
        let got = ref [] in
        let config =
          {
            Session.default_config with
            next_request =
              (fun n -> if n <= 3 then Some (Session.rid_of_seq n, "job") else None);
            process_reply =
              (fun env ->
                got := env.Envelope.rid :: !got;
                crash ());
          }
        in
        ignore (Session.run (connect_alice client_node) config);
        List.rev !got)
  in
  Alcotest.(check (list string)) "fig. 2 client processed" [ "r1"; "r2"; "r3" ] rids

let test_transceive_matches_after_crash () =
  let rids =
    reply_rids (fun ~client_node ~crash ->
        let clerk = connect_alice client_node in
        List.map
          (fun rid ->
            let rec get () =
              match Clerk.transceive clerk ~rid ~timeout:3.0 "job" with
              | Some env -> env.Envelope.rid
              | None -> get ()
            in
            let got = get () in
            crash ();
            got)
          [ "r1"; "r2"; "r3" ])
  in
  Alcotest.(check (list string)) "transceive got" [ "r1"; "r2"; "r3" ] rids

let test_stream_clerk_matches_after_crash () =
  let rids =
    reply_rids (fun ~client_node ~crash ->
        let st =
          Stream_clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
            ~req_queue:"req" ~width:1 ()
        in
        List.map
          (fun rid ->
            Stream_clerk.submit st ~rid "job";
            match Stream_clerk.next_reply st () with
            | Some env ->
              crash ();
              env.Envelope.rid
            | None -> "none")
          [ "r1"; "r2"; "r3" ])
  in
  Alcotest.(check (list string)) "stream clerk got" [ "r1"; "r2"; "r3" ] rids

let () =
  Alcotest.run "rrq-protocol-edges"
    [
      ( "edges",
        [
          Alcotest.test_case "session already-processed branch" `Quick
            test_session_already_processed_branch;
          Alcotest.test_case "send_oneway" `Quick test_send_oneway_and_receive;
          Alcotest.test_case "transceive" `Quick test_transceive;
          Alcotest.test_case "cancel after forwarding" `Quick
            test_cancel_after_forwarding;
          Alcotest.test_case "kill_where scoping" `Quick
            test_kill_where_scopes_to_matching_elements;
          Alcotest.test_case "strict clerk enforcement" `Quick
            test_strict_clerk_enforcement;
          Alcotest.test_case "clerk state tracking" `Quick
            test_clerk_state_tracking;
          Alcotest.test_case "duplicate send suppressed" `Quick
            test_duplicate_send_suppressed;
          Alcotest.test_case "volatile queue pair" `Quick
            test_volatile_queue_pair;
          Alcotest.test_case "fig. 2 client matches replies after a crash" `Quick
            test_session_matches_after_crash;
          Alcotest.test_case "transceive matches replies after a crash" `Quick
            test_transceive_matches_after_crash;
          Alcotest.test_case "stream clerk matches replies after a crash" `Quick
            test_stream_clerk_matches_after_crash;
        ] );
    ]
