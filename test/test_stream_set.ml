(* Tests for the streaming client extension (paper §11) and queue-set
   servers (§9). *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Server = Rrq_core.Server
module Stream_clerk = Rrq_core.Stream_clerk
module Envelope = Rrq_core.Envelope
module H = Rrq_test_support.Sim_harness

let make_backend ?(latency = 0.005) ?(threads = 4) ?(work = 0.0) s =
  let net = Net.create ~latency s (Rng.create 55) in
  let backend =
    Site.create ~queues:[ ("req", Qm.default_attrs) ] ~stale_timeout:3.0
      (Net.make_node net "backend")
  in
  let _ =
    Server.start backend ~req_queue:"req" ~threads (fun site txn env ->
        if work > 0.0 then Sched.sleep work;
        ignore
          (Kvdb.add (Site.kv site) (Tm.txn_id txn) ("exec:" ^ env.Envelope.rid) 1);
        Server.Reply ("done:" ^ env.Envelope.rid))
  in
  (net, backend, Net.make_node net "client")

let exec_count backend rid =
  match Kvdb.committed_value (Site.kv backend) ("exec:" ^ rid) with
  | Some s -> int_of_string s
  | None -> 0

(* --- stream clerk -------------------------------------------------------- *)

let test_stream_ordered_replies () =
  H.run_fiber' (fun s ->
      let _, backend, client_node = make_backend s in
      let stream =
        Stream_clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
          ~req_queue:"req" ~width:4 ()
      in
      for i = 1 to 10 do
        Stream_clerk.submit stream ~rid:(Printf.sprintf "r%d" i)
          (Printf.sprintf "w%d" i)
      done;
      let replies = Stream_clerk.drain stream () in
      Alcotest.(check (list string)) "replies in submission order"
        (List.init 10 (fun i -> Printf.sprintf "r%d" (i + 1)))
        (List.map (fun r -> r.Envelope.rid) replies);
      for i = 1 to 10 do
        Alcotest.(check int) "exactly once" 1
          (exec_count backend (Printf.sprintf "r%d" i))
      done;
      Stream_clerk.disconnect stream)

let test_stream_hides_latency () =
  (* With 50ms one-way latency and an 8-thread server, a window of 4 must
     finish much faster than the one-at-a-time client model. *)
  let run_with_width width =
    H.run_fiber' (fun s ->
        let _, _, client_node = make_backend ~latency:0.05 ~threads:8 s in
        let stream =
          Stream_clerk.connect ~client_node ~system:"backend" ~client_id:"w"
            ~req_queue:"req" ~width ()
        in
        let t0 = Sched.clock () in
        for i = 1 to 12 do
          Stream_clerk.submit stream ~rid:(Printf.sprintf "r%d" i) "job"
        done;
        ignore (Stream_clerk.drain stream ());
        Sched.clock () -. t0)
  in
  let serial = run_with_width 1 in
  let streamed = run_with_width 4 in
  Alcotest.(check bool)
    (Printf.sprintf "window 4 at least 2x faster (%.2f vs %.2f)" serial streamed)
    true
    (streamed *. 2.0 < serial)

let test_stream_survives_backend_crash () =
  let done_ = ref false in
  let _ =
    H.run (fun s ->
        let net = Net.create s (Rng.create 56) in
        let backend =
          Site.create ~queues:[ ("req", Qm.default_attrs) ] ~stale_timeout:2.0
            (Net.make_node net "backend")
        in
        let _ =
          Server.start backend ~req_queue:"req" ~threads:2 (fun site txn env ->
              ignore
                (Kvdb.add (Site.kv site) (Tm.txn_id txn)
                   ("exec:" ^ env.Envelope.rid) 1);
              Server.Reply "ok")
        in
        Sched.at s 0.5 (fun () -> Site.crash_restart backend ~after:2.0);
        let client_node = Net.make_node net "client" in
        ignore
          (Sched.spawn s ~group:"client" ~name:"alice" (fun () ->
               let stream =
                 Stream_clerk.connect ~client_node ~system:"backend"
                   ~client_id:"alice" ~req_queue:"req" ~width:3 ()
               in
               for i = 1 to 9 do
                 Stream_clerk.submit stream ~rid:(Printf.sprintf "r%d" i) "job";
                 Sched.sleep 0.2
               done;
               let replies = Stream_clerk.drain stream ~timeout:60.0 () in
               Alcotest.(check int) "all replies across the crash" 9
                 (List.length replies);
               for i = 1 to 9 do
                 Alcotest.(check int) "exactly once" 1
                   (exec_count backend (Printf.sprintf "r%d" i))
               done;
               done_ := true)))
  in
  Alcotest.(check bool) "completed" true !done_

(* --- queue-set servers ---------------------------------------------------- *)

let await pred =
  let rec go n =
    if pred () then true
    else if n > 1000 then false
    else begin
      Sched.sleep 0.01;
      go (n + 1)
    end
  in
  go 0

(* Enqueue a request envelope on [h] the way a clerk would. *)
let push qm h ?(prio = 0) body =
  let env =
    Envelope.make ~rid:body ~client_id:"loader" ~reply_node:"backend"
      ~reply_queue:"express" body
  in
  ignore
    (Qm.auto_commit qm (fun id ->
         Qm.enqueue qm id h ~props:(Envelope.props env) ~priority:prio
           env.Envelope.body))

let test_server_queue_set () =
  H.run_fiber' (fun s ->
      let net = Net.create s (Rng.create 57) in
      let backend =
        Site.create
          ~queues:
            [ ("express", Qm.default_attrs); ("standard", Qm.default_attrs) ]
          (Net.make_node net "backend")
      in
      let served = ref [] in
      let _ =
        Server.start_set backend ~req_queues:[ "express"; "standard" ]
          (fun _site _txn env ->
            served := env.Envelope.body :: !served;
            Server.No_reply)
      in
      let qm = Site.qm backend in
      let h_exp, _ =
        Qm.register qm ~queue:"express" ~registrant:"loader" ~stable:false
      in
      let h_std, _ =
        Qm.register qm ~queue:"standard" ~registrant:"loader" ~stable:false
      in
      (* standard jobs arrive first, but the express queue's high-priority
         job must be served first once present *)
      push qm h_std "std1";
      push qm h_std "std2";
      push qm h_exp ~prio:9 "exp1";
      ignore (await (fun () -> List.length !served = 3));
      Alcotest.(check string) "express served first" "exp1"
        (List.nth (List.rev !served) 0))

(* Two set-server threads over a strict-FIFO queue and a plain one: the
   strict queue's lock serializes them as it does under [Server.start],
   so a request is handled and committed before the next one starts. *)
let test_server_queue_set_strict_fifo () =
  H.run_fiber' (fun s ->
      let net = Net.create s (Rng.create 57) in
      let backend =
        Site.create
          ~queues:
            [
              ("fifo", { Qm.default_attrs with Qm.strict_fifo = true });
              ("standard", Qm.default_attrs);
            ]
          (Net.make_node net "backend")
      in
      let steps = ref [] in
      let _ =
        Server.start_set backend ~req_queues:[ "fifo"; "standard" ] ~threads:2
          (fun _site _txn env ->
            steps := ("start " ^ env.Envelope.body) :: !steps;
            Sched.sleep 1.0;
            steps := ("end " ^ env.Envelope.body) :: !steps;
            Server.No_reply)
      in
      let qm = Site.qm backend in
      let h, _ = Qm.register qm ~queue:"fifo" ~registrant:"loader" ~stable:false in
      push qm h "r1";
      push qm h "r2";
      ignore (await (fun () -> List.length !steps = 4));
      Alcotest.(check (list string)) "serialized"
        [ "start r1"; "end r1"; "start r2"; "end r2" ]
        (List.rev !steps))

(* The same set with two requests on the plain queue: a strict queue
   serializes only the transactions that take from it, so both threads
   handle a standard request at once. *)
let test_server_queue_set_strict_locks_only_its_own () =
  H.run_fiber' (fun s ->
      let net = Net.create s (Rng.create 57) in
      let backend =
        Site.create
          ~queues:
            [
              ("fifo", { Qm.default_attrs with Qm.strict_fifo = true });
              ("standard", Qm.default_attrs);
            ]
          (Net.make_node net "backend")
      in
      let starts = ref [] in
      let _ =
        Server.start_set backend ~req_queues:[ "fifo"; "standard" ] ~threads:2
          (fun _site _txn env ->
            starts := (env.Envelope.body, Sched.clock ()) :: !starts;
            Sched.sleep 1.0;
            Server.No_reply)
      in
      let qm = Site.qm backend in
      let h, _ = Qm.register qm ~queue:"standard" ~registrant:"loader" ~stable:false in
      push qm h "s1";
      push qm h "s2";
      ignore (await (fun () -> List.length !starts = 2));
      Alcotest.(check (list string)) "both started" [ "s1"; "s2" ]
        (List.sort compare (List.map fst !starts));
      List.iter
        (fun (body, at) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s started at %.3f, before the other ended" body at)
            true (at < 0.5))
        !starts)

let () =
  Alcotest.run "rrq-stream-set"
    [
      ( "stream",
        [
          Alcotest.test_case "ordered replies, exactly once" `Quick
            test_stream_ordered_replies;
          Alcotest.test_case "hides latency" `Quick test_stream_hides_latency;
          Alcotest.test_case "survives backend crash" `Quick
            test_stream_survives_backend_crash;
        ] );
      ( "queue-set",
        [
          Alcotest.test_case "set server priority" `Quick test_server_queue_set;
          Alcotest.test_case "set server strict fifo" `Quick
            test_server_queue_set_strict_fifo;
          Alcotest.test_case "set server locks only its strict queue" `Quick
            test_server_queue_set_strict_locks_only_its_own;
        ] );
    ]
