module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Pipeline = Rrq_core.Pipeline
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module Scenario = Rrq_check.Scenario
module World = Rrq_check.World
module Plan = Rrq_check.Plan
module Histogram = Rrq_util.Histogram

let amount = 100

(* ---- E2: crash matrix ------------------------------------------------- *)

(* E2 runs the checker's chain scenario: fault-free, then with each site
   crashed at t=0.1, while the transfers are in flight (the fault-free run
   finishes them by t≈0.3), and restarted 3 s later. *)
let run_crash_matrix () =
  let chain = Scenario.chain in
  List.map
    (fun crashed ->
      let faults =
        if crashed = "none" then []
        else [ Plan.Crash { node = crashed; at = 0.1; recover_after = 3.0 } ]
      in
      (crashed, Scenario.run chain { chain.Scenario.probe with Plan.faults }))
    [ "none"; "bankA"; "bankB"; "clearing" ]

let crash_table rows =
  let t =
    Table.create
      ~title:"E2: 3-site transfer chain vs. crash of each site (fig. 6)"
      ~columns:
        [ "crashed site"; "transfers"; "completed"; "src"; "dst"; "cleared"; "conserved" ]
  in
  List.iter
    (fun (crashed, (o : Scenario.outcome)) ->
      let total name = List.assoc name o.totals in
      let src = total "src" and dst = total "dst" in
      Table.add_row t
        [
          crashed;
          string_of_int o.requests;
          string_of_int o.replies;
          string_of_int src;
          string_of_int dst;
          string_of_int (total "cleared");
          (if src + dst = 1000 && dst = amount * o.requests then "yes" else "NO");
        ])
    rows;
  t

(* ---- B6: chain vs one long transaction -------------------------------- *)

type contention_row = {
  design : string;
  stage_work : float;
  clients : int;
  accounts : int;
  elapsed : float;
  throughput : float;
  p95_latency : float;
}

(* The chains bring their own queues and servers. *)
let backend net =
  World.site
    (World.build net { (World.single "backend") with queues = []; stale_timeout = 5.0 })
    "backend"

let parse_transfer body =
  match String.split_on_char '|' body with
  | [ a; b ] -> (a, b)
  | _ -> failwith "bad transfer body"

let one_contention_run ~design ~clients ~per_client ~accounts ~stage_work ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let backend = backend net in
      let entry_queue, entry_site =
        match design with
        | `Chain ->
          let stage ~q ~work =
            { Pipeline.stage_site = backend; in_queue = q; work; compensate = None }
          in
          let p =
            Pipeline.install
              [
                stage ~q:"debit" ~work:(fun site txn env ->
                    let src, _ = parse_transfer env.Envelope.body in
                    ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) src (-amount));
                    Sched.sleep stage_work;
                    (env.Envelope.body, ""));
                stage ~q:"credit" ~work:(fun site txn env ->
                    let _, dst = parse_transfer env.Envelope.body in
                    ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) dst amount);
                    Sched.sleep stage_work;
                    (env.Envelope.body, ""));
                stage ~q:"clear" ~work:(fun site txn _env ->
                    ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "cleared" 1);
                    ("ok", ""));
              ]
          in
          (Pipeline.entry_queue p, Pipeline.entry_site p)
        | `Long ->
          (* Deadlock victims retry many times under heavy contention; a
             small retry limit would shunt them to the error queue and
             measure an artifact instead of contention. *)
          Qm.create_queue (Site.qm backend)
            ~attrs:{ Qm.default_attrs with retry_limit = 100_000 }
            "xfer";
          ignore
            (Server.start backend ~req_queue:"xfer" ~threads:clients
               (fun site txn env ->
                 let src, dst = parse_transfer env.Envelope.body in
                 let kv = Site.kv site in
                 let id = Tm.txn_id txn in
                 ignore (Kvdb.add kv id src (-amount));
                 Sched.sleep stage_work;
                 ignore (Kvdb.add kv id dst amount);
                 Sched.sleep stage_work;
                 ignore (Kvdb.add kv id "cleared" 1);
                 Server.Reply "ok"));
          ("xfer", "backend")
      in
      let client_node = Net.make_node net "client" in
      fun () ->
        let rng = Rng.create (seed + 1) in
        let lat = Histogram.create () in
        let done_clients = ref 0 in
        let start = Sched.clock () in
        for c = 1 to clients do
          ignore
            (Sched.fork ~name:(Printf.sprintf "cl%d" c) (fun () ->
                 let clerk, _ =
                   Clerk.connect ~client_node ~system:entry_site
                     ~client_id:(Printf.sprintf "c%d" c) ~req_queue:entry_queue ()
                 in
                 for i = 1 to per_client do
                   let a = Rng.int rng accounts and b = Rng.int rng accounts in
                   let body = Printf.sprintf "acct%d|acct%d" a b in
                   let rid = Printf.sprintf "c%d-%d" c i in
                   let t0 = Sched.clock () in
                   let rec go n =
                     if n > 60 then ()
                     else begin
                       ignore (Clerk.send clerk ~rid body);
                       match Clerk.receive clerk ~timeout:10.0 () with
                       | Some _ -> Histogram.add lat (Sched.clock () -. t0)
                       | None -> go (n + 1)
                     end
                   in
                   go 0
                 done;
                 incr done_clients))
        done;
        ignore (Runner.await ~timeout:3000.0 (fun () -> !done_clients = clients));
        let elapsed = Sched.clock () -. start in
        let total = clients * per_client in
        {
          design = (match design with `Chain -> "3-txn chain" | `Long -> "1 long txn");
          stage_work;
          clients;
          accounts;
          elapsed;
          throughput = float_of_int total /. elapsed;
          p95_latency = Histogram.percentile lat 0.95;
        })

let run_contention ?(clients = 8) ?(per_client = 4) ?(accounts = 4)
    ?(stage_work = 0.05) () =
  [
    one_contention_run ~design:`Long ~clients ~per_client ~accounts ~stage_work
      ~seed:23;
    one_contention_run ~design:`Chain ~clients ~per_client ~accounts ~stage_work
      ~seed:23;
  ]

let contention_table rows =
  let t =
    Table.create
      ~title:"B6: multi-transaction chain vs one long transaction (hot accounts)"
      ~columns:
        [ "design"; "stage work (s)"; "clients"; "accounts"; "elapsed (s)";
          "xfers/s"; "p95 latency (s)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.design;
          Printf.sprintf "%.3f" r.stage_work;
          string_of_int r.clients;
          string_of_int r.accounts;
          Printf.sprintf "%.2f" r.elapsed;
          Printf.sprintf "%.2f" r.throughput;
          Printf.sprintf "%.3f" r.p95_latency;
        ])
    rows;
  t

(* ---- B8: lock inheritance / request serializability -------------------- *)

type serial_row = {
  mode : string;
  s_transfers : int;
  audits : int;
  anomalies : int;
  s_elapsed : float;
}

let one_serializability_run ~inherit_locks ~transfers ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let backend = backend net in
      let stage ~q ~work =
        { Pipeline.stage_site = backend; in_queue = q; work; compensate = None }
      in
      let pipeline =
        Pipeline.install ~inherit_locks
          [
            stage ~q:"debit" ~work:(fun site txn env ->
                ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "acct:src" (-amount));
                Sched.sleep 0.05;
                (env.Envelope.body, ""));
            stage ~q:"credit" ~work:(fun site txn env ->
                (* think first, update late: between the stages the money is
                   in flight and nothing is locked - unless inherited *)
                Sched.sleep 0.05;
                ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "acct:dst" amount);
                ("ok:" ^ env.Envelope.rid, ""));
          ]
      in
      let client_node = Net.make_node net "client" in
      Site.with_txn backend (fun txn ->
          Kvdb.put (Site.kv backend) (Tm.txn_id txn) "acct:src" "1000";
          Kvdb.put (Site.kv backend) (Tm.txn_id txn) "acct:dst" "0");
      fun () ->
        let stop = ref false in
        let audits = ref 0 and anomalies = ref 0 in
        (* The invariant reader: src + dst must always total 1000 if whole
           requests are serializable. *)
        ignore
          (Sched.fork ~name:"auditor" (fun () ->
               while not !stop do
                 (try
                    Site.with_txn backend (fun txn ->
                        let kv = Site.kv backend in
                        let id = Tm.txn_id txn in
                        let src = Kvdb.get_int kv id "acct:src" in
                        let dst = Kvdb.get_int kv id "acct:dst" in
                        incr audits;
                        if src + dst <> 1000 then incr anomalies)
                  with Site.Aborted _ -> ());
                 Sched.sleep 0.005
               done));
        let start = Sched.clock () in
        let clerk, _ =
          Clerk.connect ~client_node ~system:(Pipeline.entry_site pipeline)
            ~client_id:"mover" ~req_queue:(Pipeline.entry_queue pipeline) ()
        in
        for i = 1 to transfers do
          match Clerk.transceive clerk ~rid:(Printf.sprintf "t%d" i) "move" with
          | Some _ -> ()
          | None -> failwith "transfer lost"
        done;
        let elapsed = Sched.clock () -. start in
        stop := true;
        {
          mode = (if inherit_locks then "inherited locks" else "plain chain");
          s_transfers = transfers;
          audits = !audits;
          anomalies = !anomalies;
          s_elapsed = elapsed;
        })

let run_serializability ?(transfers = 8) () =
  [
    one_serializability_run ~inherit_locks:false ~transfers ~seed:31;
    one_serializability_run ~inherit_locks:true ~transfers ~seed:31;
  ]

let serializability_table rows =
  let t =
    Table.create
      ~title:
        "B8: request serializability via lock inheritance (concurrent invariant reader)"
      ~columns:[ "mode"; "transfers"; "audits"; "anomalies"; "elapsed (s)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.mode;
          string_of_int r.s_transfers;
          string_of_int r.audits;
          string_of_int r.anomalies;
          Printf.sprintf "%.2f" r.s_elapsed;
        ])
    rows;
  t
