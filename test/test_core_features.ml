(* Tests for the upper request-management layer: the fig. 1/2 client
   machinery, multi-transaction pipelines with saga cancellation,
   interactive requests (both implementations), the store-and-forward
   daemon and threshold-driven server scaling. *)

module Sched = Rrq_sim.Sched
module Rng = Rrq_util.Rng
module Net = Rrq_net.Net
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Server = Rrq_core.Server
module Session = Rrq_core.Session
module Fsm = Rrq_core.Client_fsm
module Envelope = Rrq_core.Envelope
module Pipeline = Rrq_core.Pipeline
module Interactive = Rrq_core.Interactive
module Forwarder = Rrq_core.Forwarder
module Autoscale = Rrq_core.Autoscale
module H = Rrq_test_support.Sim_harness

(* --- client FSM (fig. 1 / fig. 7) -------------------------------------- *)

let test_fsm_legal_traces () =
  let ok trace = Alcotest.(check bool) "legal" true (Fsm.run trace <> None) in
  ok [ Fsm.Connect_fresh; Send; Receive_reply; Send; Receive_reply; Disconnect ];
  ok [ Fsm.Connect_req_sent; Receive_reply; Disconnect ];
  ok [ Fsm.Connect_reply_recvd; Rereceive; Send; Receive_reply; Disconnect ];
  (* fig. 7: interactive cycle *)
  ok
    [
      Fsm.Connect_fresh;
      Send;
      Receive_intermediate;
      Send_intermediate;
      Receive_intermediate;
      Send_intermediate;
      Receive_reply;
      Disconnect;
    ]

let test_fsm_illegal_traces () =
  let bad trace = Alcotest.(check bool) "illegal" true (Fsm.run trace = None) in
  bad [ Fsm.Send ];
  bad [ Fsm.Connect_fresh; Receive_reply ];
  bad [ Fsm.Connect_fresh; Send; Send ];
  bad [ Fsm.Connect_fresh; Send; Disconnect ];
  bad [ Fsm.Connect_fresh; Send_intermediate ]

let prop_fsm_legal_events_step =
  QCheck2.Test.make ~name:"fsm: legal_events matches step" ~count:200
    QCheck2.Gen.(list_size (int_bound 12) (int_bound 8))
    (fun trace_ints ->
      let all = Array.of_list (Fsm.legal_events Fsm.Disconnected @ [] ) in
      ignore all;
      let events =
        [|
          Fsm.Connect_fresh;
          Fsm.Connect_req_sent;
          Fsm.Connect_reply_recvd;
          Fsm.Send;
          Fsm.Receive_reply;
          Fsm.Rereceive;
          Fsm.Receive_intermediate;
          Fsm.Send_intermediate;
          Fsm.Disconnect;
        |]
      in
      let state = ref (Some Fsm.initial) in
      List.for_all
        (fun i ->
          match !state with
          | None -> true
          | Some s ->
            let e = events.(i) in
            let next = Fsm.step s e in
            let listed = List.mem e (Fsm.legal_events s) in
            state := next;
            (next <> None) = listed)
        trace_ints)

(* --- session (fig. 2) --------------------------------------------------- *)

(* Standard rig shared with the session tests: backend + counting server +
   a simulated ticket printer as the client's testable output device. *)
let session_rig s =
  let net = Net.create s (Rng.create 7) in
  let backend_node = Net.make_node net "backend" in
  let backend =
    Site.create ~queues:[ ("req", Qm.default_attrs) ] ~stale_timeout:3.0
      backend_node
  in
  let _server =
    Server.start backend ~req_queue:"req" (fun site txn env ->
        ignore
          (Kvdb.add (Site.kv site) (Tm.txn_id txn)
             ("exec:" ^ env.Envelope.rid) 1);
        Server.Reply ("ok:" ^ env.Envelope.rid))
  in
  let client_node = Net.make_node net "client" in
  (net, backend, client_node)

let ticket_printer () =
  let printed = ref [] in
  let state () = string_of_int (List.length !printed) in
  let print (env : Envelope.t) = printed := env.Envelope.rid :: !printed in
  (printed, state, print)

let session_config ~n ~state ~print =
  {
    Session.default_config with
    next_request =
      (fun seq ->
        if seq <= n then Some (Session.rid_of_seq seq, Printf.sprintf "job%d" seq)
        else None);
    process_reply = print;
    device_state = state;
    (* One ticket per request: the printed count tells the user where to
       resume even after a post-Disconnect crash (paper 11). *)
    resume_seq = (fun () -> int_of_string (state ()) + 1);
    receive_timeout = 5.0;
  }

let new_clerk client_node =
  Clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
    ~req_queue:"req" ()

let test_session_fresh_run () =
  let outcome = ref None in
  let _ =
    H.run (fun s ->
        let _, _, client_node = session_rig s in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ = new_clerk client_node in
               let printed, state, print = ticket_printer () in
               let o = Session.run clerk (session_config ~n:3 ~state ~print) in
               outcome := Some (o, List.length !printed))))
  in
  match !outcome with
  | Some (o, tickets) ->
    Alcotest.(check (list string)) "sent all" [ "r1"; "r2"; "r3" ] o.Session.sent;
    Alcotest.(check bool) "no resync" true (o.Session.resynced = `None);
    Alcotest.(check int) "3 tickets printed" 3 tickets
  | None -> Alcotest.fail "session did not complete"

(* Crash the client at various points; the next incarnation must finish the
   work list with every ticket printed exactly once. *)
let session_crash_scenario ~kill_at =
  let total_tickets = ref (-1) in
  let resync = ref `None in
  let completed = ref false in
  let _ =
    H.run (fun s ->
        let _, _, client_node = session_rig s in
        (* The printer device survives client crashes (it is external). *)
        let printed, state, print = ticket_printer () in
        ignore
          (Sched.spawn s ~group:"client1" ~name:"alice-1" (fun () ->
               let clerk, _ = new_clerk client_node in
               (match Session.run clerk (session_config ~n:4 ~state ~print) with
               | _ -> completed := true
               | exception _ -> ());
               total_tickets := List.length !printed));
        Sched.at s kill_at (fun () -> Sched.kill_group s "client1");
        Sched.at s (kill_at +. 1.0) (fun () ->
            (* A user restarts the client only if the work wasn't done. *)
            if not !completed then
              ignore
                (Sched.spawn s ~group:"client2" ~name:"alice-2" (fun () ->
                     let clerk, _ = new_clerk client_node in
                     let o =
                       Session.run clerk (session_config ~n:4 ~state ~print)
                     in
                     resync := o.Session.resynced;
                     total_tickets := List.length !printed))))
  in
  (!total_tickets, !resync)

let test_session_crash_early () =
  (* Crash almost immediately: whatever happened, the second incarnation
     finishes with exactly 4 tickets. *)
  let tickets, _ = session_crash_scenario ~kill_at:0.012 in
  Alcotest.(check int) "exactly 4 tickets" 4 tickets

let test_session_crash_midway () =
  let tickets, _ = session_crash_scenario ~kill_at:0.05 in
  Alcotest.(check int) "exactly 4 tickets" 4 tickets

let test_session_crash_many_points () =
  (* Sweep the kill time across the whole run: the invariant must hold at
     every crash point (this is the fig. 2 argument, exhaustively). *)
  List.iter
    (fun kill_at ->
      let tickets, _ = session_crash_scenario ~kill_at in
      Alcotest.(check int)
        (Printf.sprintf "exactly 4 tickets (kill at %.3f)" kill_at)
        4 tickets)
    [ 0.02; 0.03; 0.04; 0.06; 0.08; 0.1; 0.15; 0.2 ]

(* --- pipeline (fig. 6) --------------------------------------------------- *)

(* The paper's running example: a funds transfer as debit / credit / log,
   across three sites. *)
type transfer_rig = {
  site_a : Site.t;
  site_b : Site.t;
  site_c : Site.t;
  pipeline : Pipeline.t;
  client_node : Net.node;
}

let amount = 100

let transfer_stages site_a site_b site_c =
  [
    {
      Pipeline.stage_site = site_a;
      in_queue = "debit";
      work =
        (fun site txn env ->
          let kv = Site.kv site in
          let id = Tm.txn_id txn in
          ignore (Kvdb.add kv id "acct:src" (-amount));
          (env.Envelope.body, "debited"));
      compensate =
        Some
          (fun site txn _env ->
            ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "acct:src" amount));
    };
    {
      Pipeline.stage_site = site_b;
      in_queue = "credit";
      work =
        (fun site txn env ->
          let kv = Site.kv site in
          let id = Tm.txn_id txn in
          ignore (Kvdb.add kv id "acct:dst" amount);
          (env.Envelope.body, env.Envelope.scratch ^ "+credited"));
      compensate =
        Some
          (fun site txn _env ->
            ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "acct:dst" (-amount)));
    };
    {
      Pipeline.stage_site = site_c;
      in_queue = "clear";
      work =
        (fun site txn env ->
          let kv = Site.kv site in
          let id = Tm.txn_id txn in
          ignore (Kvdb.add kv id "cleared" 1);
          ("transfer-complete:" ^ env.Envelope.rid, ""));
      compensate =
        Some
          (fun site txn _env ->
            ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "cleared" (-1)));
    };
  ]

let make_transfer_rig s =
  let net = Net.create s (Rng.create 11) in
  let site_a = Site.create ~stale_timeout:3.0 (Net.make_node net "bankA") in
  let site_b = Site.create ~stale_timeout:3.0 (Net.make_node net "bankB") in
  let site_c = Site.create ~stale_timeout:3.0 (Net.make_node net "clearing") in
  let pipeline = Pipeline.install (transfer_stages site_a site_b site_c) in
  let client_node = Net.make_node net "client" in
  (* initial funding *)
  Site.with_txn site_a (fun txn ->
      Kvdb.put (Site.kv site_a) (Tm.txn_id txn) "acct:src" "1000");
  { site_a; site_b; site_c; pipeline; client_node }

let balance site key =
  match Kvdb.committed_value (Site.kv site) key with
  | Some s -> int_of_string s
  | None -> 0

let transfer_clerk rig ?(client_id = "alice") () =
  Clerk.connect ~client_node:rig.client_node
    ~system:(Pipeline.entry_site rig.pipeline)
    ~client_id
    ~req_queue:(Pipeline.entry_queue rig.pipeline)
    ()

let test_pipeline_transfer () =
  let done_ = ref false in
  let _ =
    H.run (fun s ->
        let rig = ref None in
        ignore
          (Sched.spawn s ~name:"setup" (fun () ->
               rig := Some (make_transfer_rig s);
               let rg = Option.get !rig in
               ignore
                 (Sched.fork ~name:"alice" (fun () ->
                      let clerk, _ = transfer_clerk rg () in
                      match Clerk.transceive clerk ~rid:"t1" "xfer" with
                      | Some reply ->
                        Alcotest.(check string) "reply" "transfer-complete:t1"
                          reply.Envelope.body;
                        Alcotest.(check int) "src debited" 900
                          (balance rg.site_a "acct:src");
                        Alcotest.(check int) "dst credited" 100
                          (balance rg.site_b "acct:dst");
                        Alcotest.(check int) "cleared" 1
                          (balance rg.site_c "cleared");
                        done_ := true
                      | None -> Alcotest.fail "no reply")))))
  in
  Alcotest.(check bool) "completed" true !done_

let test_pipeline_survives_stage_crash () =
  (* Crash the middle site while transfers are in flight; the chain cannot
     be broken (paper 6): every transfer completes exactly once. *)
  let done_ = ref 0 in
  let rigref = ref None in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~name:"setup" (fun () ->
               let rg = make_transfer_rig s in
               rigref := Some rg;
               Sched.at s 0.5 (fun () -> Site.crash_restart rg.site_b ~after:4.0);
               for i = 1 to 3 do
                 ignore
                   (Sched.fork ~name:(Printf.sprintf "cl%d" i) (fun () ->
                        let clerk, _ =
                          transfer_clerk rg
                            ~client_id:(Printf.sprintf "alice%d" i) ()
                        in
                        let rid = Printf.sprintf "t%d" i in
                        let rec go n =
                          if n > 40 then Alcotest.fail "transfer stuck"
                          else begin
                            ignore (Clerk.send clerk ~rid "xfer");
                            match Clerk.receive clerk ~timeout:5.0 () with
                            | Some _ -> incr done_
                            | None -> go (n + 1)
                          end
                        in
                        go 0))
               done)))
  in
  let rg = Option.get !rigref in
  Alcotest.(check int) "all transfers done" 3 !done_;
  Alcotest.(check int) "src" (1000 - (3 * amount)) (balance rg.site_a "acct:src");
  Alcotest.(check int) "dst" (3 * amount) (balance rg.site_b "acct:dst");
  Alcotest.(check int) "cleared" 3 (balance rg.site_c "cleared")

let test_pipeline_cancel_compensates () =
  (* Cancel after completion: the saga runs compensations in reverse and
     restores all balances (paper 7). *)
  let final = ref None in
  let rigref = ref None in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~name:"setup" (fun () ->
               let rg = make_transfer_rig s in
               rigref := Some rg;
               ignore
                 (Sched.fork ~name:"alice" (fun () ->
                      let clerk, _ = transfer_clerk rg () in
                      (match Clerk.transceive clerk ~rid:"t1" "xfer" with
                      | Some _ -> ()
                      | None -> Alcotest.fail "transfer failed");
                      (* too late for Kill_element: the request finished *)
                      Alcotest.(check bool) "kill fails after completion" false
                        (Clerk.cancel_last_request clerk);
                      (* saga cancellation instead *)
                      let cancel_clerk, _ =
                        Clerk.connect ~client_node:rg.client_node
                          ~system:(Pipeline.cancel_site rg.pipeline)
                          ~client_id:"alice-cancel"
                          ~req_queue:(Pipeline.cancel_queue rg.pipeline)
                          ()
                      in
                      match Clerk.transceive cancel_clerk ~rid:"c1" "t1" with
                      | Some reply -> final := Some reply.Envelope.body
                      | None -> Alcotest.fail "no cancel reply")))))
  in
  let rg = Option.get !rigref in
  Alcotest.(check (option string)) "cancel acknowledged"
    (Some "cancelled:t1") !final;
  Alcotest.(check int) "src restored" 1000 (balance rg.site_a "acct:src");
  Alcotest.(check int) "dst restored" 0 (balance rg.site_b "acct:dst");
  Alcotest.(check int) "clearing compensated" 0 (balance rg.site_c "cleared")

let test_pipeline_cancel_race_is_consistent () =
  (* Cancel while the request is between stages. Whatever the interleaving,
     the end state is: acknowledged cancel, all balances restored, and each
     stage either executed-then-compensated or never executed. *)
  let rigref = ref None in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~name:"setup" (fun () ->
               let net = Net.create s (Rng.create 13) in
               let site_a = Site.create (Net.make_node net "bankA") in
               let site_b = Site.create (Net.make_node net "bankB") in
               let site_c = Site.create (Net.make_node net "clearing") in
               let stages = transfer_stages site_a site_b site_c in
               (* slow down the middle stage to widen the race window *)
               let stages =
                 List.mapi
                   (fun i st ->
                     if i = 1 then
                       {
                         st with
                         Pipeline.work =
                           (fun site txn env ->
                             Sched.sleep 2.0;
                             st.Pipeline.work site txn env);
                       }
                     else st)
                   stages
               in
               let pipeline = Pipeline.install stages in
               let client_node = Net.make_node net "client" in
               Site.with_txn site_a (fun txn ->
                   Kvdb.put (Site.kv site_a) (Tm.txn_id txn) "acct:src" "1000");
               rigref := Some (site_a, site_b, site_c);
               ignore
                 (Sched.fork ~name:"alice" (fun () ->
                      let clerk, _ =
                        Clerk.connect ~client_node
                          ~system:(Pipeline.entry_site pipeline)
                          ~client_id:"alice"
                          ~req_queue:(Pipeline.entry_queue pipeline) ()
                      in
                      ignore (Clerk.send clerk ~rid:"t1" "xfer")));
               (* cancel ~1s in: stage 1 done, stage 2 mid-flight *)
               Sched.at s 1.0 (fun () ->
                   ignore
                     (Sched.spawn s ~name:"canceller" (fun () ->
                          let cancel_clerk, _ =
                            Clerk.connect ~client_node
                              ~system:(Pipeline.cancel_site pipeline)
                              ~client_id:"alice-cancel"
                              ~req_queue:(Pipeline.cancel_queue pipeline) ()
                          in
                          match
                            Clerk.transceive cancel_clerk ~rid:"c1" ~timeout:60.0
                              "t1"
                          with
                          | Some _ -> ()
                          | None -> Alcotest.fail "no cancel reply"))))))
  in
  let site_a, site_b, site_c = Option.get !rigref in
  Alcotest.(check int) "src restored" 1000 (balance site_a "acct:src");
  Alcotest.(check int) "dst restored" 0 (balance site_b "acct:dst");
  Alcotest.(check int) "clearing net zero" 0 (balance site_c "cleared")

(* --- interactive requests (8) ------------------------------------------- *)

let test_pseudo_conversation () =
  (* Three-leg seat-booking conversation via the scratch pad. *)
  let final = ref None in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 5) in
        let backend =
          Site.create ~queues:[ ("conv", Qm.default_attrs) ]
            (Net.make_node net "backend")
        in
        let _ =
          Interactive.pseudo_server backend ~req_queue:"conv"
            (fun site txn env ->
              let kv = Site.kv site in
              let id = Tm.txn_id txn in
              match env.Envelope.step with
              | 0 ->
                Interactive.Intermediate
                  { output = "which-row?"; scratch = "flight=BA42" }
              | 1 ->
                Interactive.Intermediate
                  {
                    output = "which-seat?";
                    scratch = env.Envelope.scratch ^ ";row=" ^ env.Envelope.body;
                  }
              | _ ->
                let booking = env.Envelope.scratch ^ ";seat=" ^ env.Envelope.body in
                Kvdb.put kv id "booking" booking;
                Interactive.Final ("booked:" ^ booking))
        in
        let client_node = Net.make_node net "client" in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"conv" ()
               in
               let respond ~step ~output =
                 match (step, output) with
                 | 1, "which-row?" -> "12"
                 | 2, "which-seat?" -> "C"
                 | _ -> Alcotest.fail "unexpected prompt"
               in
               final :=
                 Interactive.pseudo_client clerk ~rid:"bk1" ~body:"book"
                   ~respond;
               Alcotest.(check (option string)) "booking committed"
                 (Some "flight=BA42;row=12;seat=C")
                 (Kvdb.committed_value (Site.kv backend) "booking"))))
  in
  match !final with
  | Some reply ->
    Alcotest.(check string) "final reply" "booked:flight=BA42;row=12;seat=C"
      reply.Envelope.body
  | None -> Alcotest.fail "conversation did not finish"

let test_pseudo_conversation_server_crash_between_legs () =
  (* Each leg is a full transaction: crashing the backend between legs
     loses nothing. *)
  let final = ref None in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 6) in
        let backend =
          Site.create ~queues:[ ("conv", Qm.default_attrs) ] ~stale_timeout:2.0
            (Net.make_node net "backend")
        in
        let _ =
          Interactive.pseudo_server backend ~req_queue:"conv"
            (fun _site _txn env ->
              match env.Envelope.step with
              | 0 -> Interactive.Intermediate { output = "q1"; scratch = "s1" }
              | _ -> Interactive.Final ("done:" ^ env.Envelope.scratch))
        in
        Sched.at s 0.5 (fun () -> Site.crash_restart backend ~after:2.0);
        let client_node = Net.make_node net "client" in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"conv" ()
               in
               Sched.sleep 0.4 (* leg 1 lands just before the crash *);
               final :=
                 Interactive.pseudo_client clerk ~rid:"c1" ~body:"go"
                   ~respond:(fun ~step:_ ~output:_ -> "a1"))))
  in
  match !final with
  | Some reply ->
    Alcotest.(check string) "conversation completed across crash" "done:s1"
      reply.Envelope.body
  | None -> Alcotest.fail "conversation did not finish"

let test_single_txn_conversation_replay () =
  (* 8.3: one transaction solicits two inputs by direct messages. The
     first execution is made to abort after both inputs; the re-execution
     replays them from the client's durable I/O log, so the user is asked
     each question exactly once. *)
  let result = ref None in
  let asks = ref 0 in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 8) in
        let backend =
          Site.create ~queues:[ ("conv", Qm.default_attrs) ]
            (Net.make_node net "backend")
        in
        let client_node = Net.make_node net "client" in
        let display =
          Interactive.install_display client_node ~user:(fun ~rid:_ ~seq ~prompt:_ ->
              Printf.sprintf "answer%d" seq)
        in
        let attempts = ref 0 in
        let _ =
          Server.start backend ~req_queue:"conv" (fun site _txn env ->
              let c = Interactive.console site env ~display:"client" in
              let a1 = Interactive.ask c "q1" in
              let a2 = Interactive.ask c "q2" in
              incr attempts;
              if !attempts = 1 then failwith "injected abort after inputs";
              Server.Reply (Printf.sprintf "got:%s,%s" a1 a2))
        in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"conv" ()
               in
               (match Clerk.transceive clerk ~rid:"c1" ~timeout:20.0 "go" with
               | Some reply -> result := Some reply.Envelope.body
               | None -> Alcotest.fail "no reply");
               asks := Interactive.display_asks display)))
  in
  Alcotest.(check (option string)) "reply" (Some "got:answer1,answer2") !result;
  Alcotest.(check int) "each question asked once despite re-execution" 2 !asks

(* 8.3 divergence rule: replay logged inputs only while the server's
   outputs match the log; discard the tail at the first divergence and
   solicit fresh input. *)
let test_single_txn_conversation_divergence () =
  let result = ref None in
  let asks = ref 0 in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 14) in
        let backend =
          Site.create ~queues:[ ("conv", Qm.default_attrs) ]
            (Net.make_node net "backend")
        in
        let client_node = Net.make_node net "client" in
        let display =
          Interactive.install_display client_node ~user:(fun ~rid:_ ~seq ~prompt ->
              Printf.sprintf "ans(%d,%s)" seq prompt)
        in
        let attempts = ref 0 in
        let _ =
          Server.start backend ~req_queue:"conv" (fun site _txn env ->
              let c = Interactive.console site env ~display:"client" in
              incr attempts;
              let a1 = Interactive.ask c "q1" in
              (* the second prompt differs on re-execution *)
              let p2 = if !attempts = 1 then "q2" else "q2-changed" in
              let a2 = Interactive.ask c p2 in
              if !attempts = 1 then failwith "injected abort";
              Server.Reply (Printf.sprintf "%s|%s" a1 a2))
        in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"conv" ()
               in
               (match Clerk.transceive clerk ~rid:"c1" ~timeout:30.0 "go" with
               | Some reply -> result := Some reply.Envelope.body
               | None -> Alcotest.fail "no reply");
               asks := Interactive.display_asks display)))
  in
  (* q1 replayed from the log; the changed q2 asked fresh *)
  Alcotest.(check (option string)) "final uses replay + fresh input"
    (Some "ans(1,q1)|ans(2,q2-changed)") !result;
  Alcotest.(check int) "user asked 3 times total (q1, q2, q2-changed)" 3 !asks

(* The divergence rule survives a crash of the display node: once a
   re-execution diverges at prompt 2, the old prompt 3 and its input are
   gone from the durable log too, so after the display recovers, prompt 3
   goes to the user again instead of being answered with stale input. *)
let test_display_divergence_survives_crash () =
  let asked = ref [] in
  let answers = ref [] in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 9) in
        let client_node = Net.make_node net "client" in
        let server_node = Net.make_node net "server" in
        let user ~rid:_ ~seq ~prompt =
          asked := (seq, prompt) :: !asked;
          Printf.sprintf "ans%d(%s)#%d" seq prompt (List.length !asked)
        in
        ignore (Interactive.install_display client_node ~user);
        ignore
          (Sched.spawn s ~group:"server" ~name:"conv" (fun () ->
               let ask seq prompt =
                 match
                   Net.call server_node ~dst:"client" ~service:"display"
                     (Interactive.D_ask { rid = "c1"; seq; prompt })
                 with
                 | Interactive.D_input input -> answers := input :: !answers
                 | _ -> Alcotest.fail "display: unexpected reply"
               in
               ask 1 "q1";
               ask 2 "q2";
               ask 3 "q3";
               (* A re-execution replays q1, then diverges at prompt 2. *)
               ask 1 "q1";
               ask 2 "q2-changed";
               Net.crash client_node;
               Net.restart client_node;
               ignore (Interactive.install_display client_node ~user);
               ask 3 "q3")))
  in
  Alcotest.(check (list (pair int string)))
    "after the crash, prompt 3 goes to the user again"
    [ (1, "q1"); (2, "q2"); (3, "q3"); (2, "q2-changed"); (3, "q3") ]
    (List.rev !asked);
  Alcotest.(check string) "and is answered afresh" "ans3(q3)#5" (List.hd !answers)

(* CICS Transaction Routing (paper 9): system A receives a request and
   forwards it to system B; the request carries enough information that B
   can bind to the display that produced it and converse directly. *)
let test_transaction_routing_display_binding () =
  let result = ref None in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 12) in
        let site_a =
          Site.create ~queues:[ ("route", Qm.default_attrs) ]
            (Net.make_node net "siteA")
        in
        let site_b =
          Site.create ~queues:[ ("conv", Qm.default_attrs) ]
            (Net.make_node net "siteB")
        in
        (* A: pure router *)
        let _ =
          Server.start site_a ~req_queue:"route" (fun _site _txn env ->
              Server.Forward { dst = "siteB"; queue = "conv"; env })
        in
        (* B: converses directly with the display named in the request body *)
        let _ =
          Server.start site_b ~req_queue:"conv" (fun site _txn env ->
              let c =
                Interactive.console site env ~display:env.Envelope.body
              in
              let answer = Interactive.ask c "routed-question" in
              Server.Reply ("routed-answer:" ^ answer))
        in
        let client_node = Net.make_node net "client" in
        ignore
          (Interactive.install_display client_node
             ~user:(fun ~rid:_ ~seq:_ ~prompt -> "to:" ^ prompt));
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"siteA" ~client_id:"alice"
                   ~req_queue:"route" ()
               in
               (* body = the display node, the "communication binding" info *)
               result := Clerk.transceive clerk ~rid:"r1" ~timeout:20.0 "client")))
  in
  match !result with
  | Some reply ->
    Alcotest.(check string) "B conversed with A's client directly"
      "routed-answer:to:routed-question" reply.Rrq_core.Envelope.body
  | None -> Alcotest.fail "no reply through the route"

(* --- forwarder (2) ------------------------------------------------------- *)

let test_forwarder_masks_partition () =
  let got = ref None in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 9) in
        let front =
          Site.create ~queues:[ ("outbox", Qm.default_attrs) ]
            (Net.make_node net "front")
        in
        let backend =
          Site.create ~queues:[ ("req", Qm.default_attrs) ]
            (Net.make_node net "backend")
        in
        let _ =
          Server.start backend ~req_queue:"req" (fun _site _txn env ->
              Server.Reply ("served:" ^ env.Envelope.rid))
        in
        Forwarder.start front ~local_queue:"outbox" ~dst:"backend"
          ~remote_queue:"req";
        (* the wide-area link is down for a while *)
        Net.partition net "front" "backend";
        Sched.at s 5.0 (fun () -> Net.heal net "front" "backend");
        let client_node = Net.make_node net "client" in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let clerk, _ =
                 Clerk.connect ~client_node ~system:"front" ~client_id:"alice"
                   ~req_queue:"outbox" ()
               in
               (* send succeeds immediately: the local queue accepts it *)
               ignore (Clerk.send clerk ~rid:"r1" "work");
               Alcotest.(check int) "captured locally during partition" 1
                 (Qm.depth (Site.qm front) "outbox");
               let rec get n =
                 if n > 20 then None
                 else begin
                   match Clerk.receive clerk ~timeout:3.0 () with
                   | Some r -> Some r
                   | None -> get (n + 1)
                 end
               in
               got := get 0)))
  in
  match !got with
  | Some reply ->
    Alcotest.(check string) "served after heal" "served:r1" reply.Envelope.body
  | None -> Alcotest.fail "reply never arrived"

(* --- autoscale (9/11) --------------------------------------------------- *)

let test_autoscale_surge () =
  let scaler = ref None in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 10) in
        let backend = Site.create (Net.make_node net "backend") in
        let sc =
          Autoscale.install backend ~req_queue:"req" ~min_threads:1
            ~max_threads:4 ~scale_at:5 (fun site txn _env ->
              ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "served" 1);
              Sched.sleep 0.5 (* slow enough that one thread cannot keep up *);
              Server.No_reply)
        in
        scaler := Some (sc, backend);
        ignore
          (Sched.spawn s ~name:"burst" (fun () ->
               let qm = Site.qm backend in
               let h, _ =
                 Qm.register qm ~queue:"req" ~registrant:"burster" ~stable:false
               in
               for i = 1 to 20 do
                 let env =
                   Envelope.make ~rid:(Printf.sprintf "b%d" i)
                     ~client_id:"burster" ~reply_node:"backend"
                     ~reply_queue:"req" "job"
                 in
                 ignore
                   (Qm.auto_commit qm (fun id ->
                        Qm.enqueue qm id h ~props:(Envelope.props env)
                          env.Envelope.body))
               done)))
  in
  match !scaler with
  | Some (sc, backend) ->
    Alcotest.(check bool) "surge threads were spawned" true
      (Autoscale.surge_spawned sc > 0);
    Alcotest.(check int) "all jobs served" 20
      (int_of_string
         (Option.value ~default:"0"
            (Kvdb.committed_value (Site.kv backend) "served")));
    Alcotest.(check int) "surge retired after drain" 0 (Autoscale.active_surge sc)
  | None -> Alcotest.fail "no scaler"

let fsm_suite =
  [
    Alcotest.test_case "legal traces" `Quick test_fsm_legal_traces;
    Alcotest.test_case "illegal traces" `Quick test_fsm_illegal_traces;
    QCheck_alcotest.to_alcotest prop_fsm_legal_events_step;
  ]

(* Property form of the sweep: ANY crash time in (0, 0.3] leaves exactly
   4 tickets after the second incarnation finishes. *)
let prop_session_crash_anywhere =
  QCheck2.Test.make ~name:"session: any crash point yields exactly 4 tickets"
    ~count:40
    QCheck2.Gen.(map (fun n -> 0.001 +. (float_of_int n /. 1000.0)) (int_bound 300))
    (fun kill_at ->
      let tickets, _ = session_crash_scenario ~kill_at in
      tickets = 4)

let session_suite =
  [
    Alcotest.test_case "fresh run" `Quick test_session_fresh_run;
    Alcotest.test_case "crash early" `Quick test_session_crash_early;
    Alcotest.test_case "crash midway" `Quick test_session_crash_midway;
    Alcotest.test_case "crash sweep" `Quick test_session_crash_many_points;
    QCheck_alcotest.to_alcotest prop_session_crash_anywhere;
  ]

let pipeline_suite =
  [
    Alcotest.test_case "three-site transfer" `Quick test_pipeline_transfer;
    Alcotest.test_case "survives stage crash" `Quick
      test_pipeline_survives_stage_crash;
    Alcotest.test_case "cancel compensates" `Quick test_pipeline_cancel_compensates;
    Alcotest.test_case "cancel race consistent" `Quick
      test_pipeline_cancel_race_is_consistent;
  ]

let interactive_suite =
  [
    Alcotest.test_case "pseudo-conversation" `Quick test_pseudo_conversation;
    Alcotest.test_case "pseudo-conversation across crash" `Quick
      test_pseudo_conversation_server_crash_between_legs;
    Alcotest.test_case "single-txn conversation replay" `Quick
      test_single_txn_conversation_replay;
    Alcotest.test_case "transaction routing (CICS, 9)" `Quick
      test_transaction_routing_display_binding;
    Alcotest.test_case "single-txn conversation divergence" `Quick
      test_single_txn_conversation_divergence;
    Alcotest.test_case "display divergence survives a crash" `Quick
      test_display_divergence_survives_crash;
  ]

let infra_suite =
  [
    Alcotest.test_case "forwarder masks partition" `Quick
      test_forwarder_masks_partition;
    Alcotest.test_case "autoscale surge" `Quick test_autoscale_surge;
  ]

let () =
  Alcotest.run "rrq-core-features"
    [
      ("client-fsm", fsm_suite);
      ("session", session_suite);
      ("pipeline", pipeline_suite);
      ("interactive", interactive_suite);
      ("infrastructure", infra_suite);
    ]
