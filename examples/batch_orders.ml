(* Batch input, load sharing and store-and-forward (paper §1, §2, §9).

   A branch office captures orders in its local queue even while the link
   to headquarters is down (store-and-forward masks the partition); at HQ
   an alert threshold on the order queue spawns surge server threads to
   drain the backlog (CICS-style task starting), sharing the load across
   dequeuers of one queue.

   Run with: dune exec examples/batch_orders.exe *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Server = Rrq_core.Server
module Autoscale = Rrq_core.Autoscale
module Forwarder = Rrq_core.Forwarder

let () =
  let sched = Sched.create () in
  let net = Net.create sched (Rng.create 4) in
  let branch =
    Site.create ~queues:[ ("outbox", Qm.default_attrs) ] ~stale_timeout:2.0
      (Net.make_node net "branch")
  in
  let hq = Site.create ~stale_timeout:2.0 (Net.make_node net "hq") in

  (* HQ: min 1 / max 5 server threads; surge when 8+ orders pile up. *)
  let scaler =
    Autoscale.install hq ~req_queue:"orders" ~min_threads:1 ~max_threads:5
      ~scale_at:8 (fun site txn _env ->
        Sched.sleep 0.2 (* each order takes 200ms to process *);
        ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "processed" 1);
        Server.No_reply)
  in

  (* Branch -> HQ forwarding (one element per transaction, 2PC). *)
  Forwarder.start branch ~local_queue:"outbox" ~dst:"hq" ~remote_queue:"orders";

  (* The WAN is down while the morning orders arrive. *)
  Net.partition net "branch" "hq";
  print_endline "[chaos] branch <-> hq link is DOWN";
  Sched.at sched 3.0 (fun () ->
      print_endline "[chaos] link restored";
      Net.heal net "branch" "hq");

  let client_node = Net.make_node net "teller" in
  ignore
    (Sched.spawn sched ~group:"teller" ~name:"teller" (fun () ->
         let clerk, _ =
           Clerk.connect ~client_node ~system:"branch" ~client_id:"teller"
             ~req_queue:"outbox" ()
         in
         for i = 1 to 25 do
           ignore
             (Clerk.send clerk ~rid:(Printf.sprintf "order-%d" i)
                (Printf.sprintf "25 widgets, order %d" i));
           Sched.sleep 0.05
         done;
         Printf.printf
           "[teller] t=%.2f captured 25 orders locally (%d still queued at branch)\n"
           (Sched.clock ())
           (Qm.depth (Site.qm branch) "outbox");
         (* wait for everything to drain through HQ *)
         let rec wait () =
           let processed =
             match Kvdb.committed_value (Site.kv hq) "processed" with
             | Some n -> int_of_string n
             | None -> 0
           in
           if processed < 25 then begin
             Sched.sleep 0.5;
             wait ()
           end
         in
         wait ();
         Printf.printf
           "[audit] t=%.2f all 25 orders processed at HQ; surge threads used: %d\n"
           (Sched.clock ())
           (Autoscale.surge_spawned scaler);
         Printf.printf "[audit] branch outbox now %d, hq queue now %d\n"
           (Qm.depth (Site.qm branch) "outbox")
           (Qm.depth (Site.qm hq) "orders")));

  Sched.run sched;
  match Sched.failures sched with
  | [] -> print_endline "batch_orders: OK"
  | (name, e) :: _ ->
    Printf.printf "batch_orders: FIBER FAILURE %s: %s\n" name
      (Printexc.to_string e);
    exit 1
