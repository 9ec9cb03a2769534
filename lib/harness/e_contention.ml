(* B2: the one-transaction client design vs the queued three-transaction
   design (paper §2). In the one-transaction design the database locks are
   held while the reply travels and while the user thinks; queuing confines
   locks to the server's short transaction. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Clerk = Rrq_core.Clerk
module Held = Rrq_baseline.Held_txn
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module World = Rrq_check.World
module Histogram = Rrq_util.Histogram

type row = {
  design : string;
  think : float;
  clients : int;
  hot_accounts : int;
  completed : int;
  elapsed : float;
  throughput : float;
  p95_latency : float;
}

let one_run ~design ~think ~clients ~per_client ~hot_accounts ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let handler site txn env =
        ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) env.Rrq_core.Envelope.body 1);
        Server.Reply "ok"
      in
      let server =
        if design = `Held then None
        else Some { World.queue = "req"; threads = clients; handler }
      in
      let world =
        World.build net { (World.single "backend") with stale_timeout = 60.0; server }
      in
      if design = `Held then
        Held.install_server (World.site world "backend") ~service:"held";
      let client_node = Net.make_node net "client" in
      fun () ->
        let rng = Rng.create (seed + 1) in
        let lat = Histogram.create () in
        let completed = ref 0 and done_clients = ref 0 in
        let start = Sched.clock () in
        for c = 1 to clients do
          ignore
            (Sched.fork ~name:(Printf.sprintf "cl%d" c) (fun () ->
                 let clerk =
                   match design with
                   | `Held -> None
                   | `Queued ->
                     Some
                       (fst
                          (Clerk.connect ~client_node ~system:"backend"
                             ~client_id:(Printf.sprintf "c%d" c)
                             ~req_queue:"req" ()))
                 in
                 for i = 1 to per_client do
                   let acct =
                     Printf.sprintf "acct%d" (Rng.int rng hot_accounts)
                   in
                   let t0 = Sched.clock () in
                   (match (design, clerk) with
                   | `Held, _ ->
                     (* send + receive + process-the-reply inside ONE
                        transaction: locks held across the think time. *)
                     if
                       Held.call client_node ~dst:"backend" ~service:"held"
                         ~keys:[ acct ] ~delta:1 ~hold:think
                     then begin
                       Histogram.add lat (Sched.clock () -. t0);
                       incr completed
                     end
                   | `Queued, Some clerk ->
                     let rid = Printf.sprintf "c%d-%d" c i in
                     let rec go n =
                       if n > 40 then ()
                       else begin
                         ignore (Clerk.send clerk ~rid acct);
                         match Clerk.receive clerk ~timeout:10.0 () with
                         | Some _ ->
                           Histogram.add lat (Sched.clock () -. t0);
                           incr completed;
                           (* the user ponders the reply with no locks held *)
                           Sched.sleep think
                         | None -> go (n + 1)
                       end
                     in
                     go 0
                   | `Queued, None -> assert false);
                   ()
                 done;
                 incr done_clients))
        done;
        ignore (Runner.await ~timeout:3000.0 (fun () -> !done_clients = clients));
        let elapsed = Sched.clock () -. start in
        {
          design =
            (match design with
            | `Held -> "1-txn client (locks across think)"
            | `Queued -> "queued 3-txn (this paper)");
          think;
          clients;
          hot_accounts;
          completed = !completed;
          elapsed;
          throughput = float_of_int !completed /. elapsed;
          p95_latency = Histogram.percentile lat 0.95;
        })

let run ?(clients = 10) ?(per_client = 3) ?(hot_accounts = 3) () =
  List.concat_map
    (fun think ->
      [
        one_run ~design:`Held ~think ~clients ~per_client ~hot_accounts ~seed:29;
        one_run ~design:`Queued ~think ~clients ~per_client ~hot_accounts ~seed:29;
      ])
    [ 0.1; 0.5; 2.0 ]

let table rows =
  let t =
    Table.create
      ~title:
        "B2: one-transaction client vs queued design (10 clients, 3 hot accounts)"
      ~columns:
        [ "design"; "think (s)"; "completed"; "elapsed (s)"; "req/s";
          "p95 latency (s)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.design;
          Printf.sprintf "%.1f" r.think;
          string_of_int r.completed;
          Printf.sprintf "%.2f" r.elapsed;
          Printf.sprintf "%.2f" r.throughput;
          Printf.sprintf "%.3f" r.p95_latency;
        ])
    rows;
  t
