(* Queueing-behavior experiments: B3 (skip-locked vs strict FIFO dequeue),
   B4 (burst absorption vs a queueless server), B5 (load sharing). See the
   .mli for the paper claims each one reproduces. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Envelope = Rrq_core.Envelope
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module World = Rrq_check.World
module Histogram = Rrq_util.Histogram

(* Every run serves one "backend" repository whose "req" queue has
   [attrs]; returns its site and its servers. *)
let backend net ?(attrs = Qm.default_attrs) ~stale_timeout server =
  let world =
    World.build net
      {
        (World.single "backend") with
        queues = [ ("req", attrs) ];
        stale_timeout;
        server;
      }
  in
  (World.site world "backend", World.servers world)

(* ---- B3/B5: dequeue concurrency ---------------------------------------- *)

type drain_row = {
  mode : string;
  servers : int;
  jobs : int;
  makespan : float;
  throughput : float;
}

(* Pre-load [jobs] requests, start [servers] threads whose handler takes
   [work] seconds, and measure the time to drain the queue. *)
let one_drain_run ~strict ~servers ~jobs ~work ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let handler site txn _env =
        Sched.sleep work;
        ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "served" 1);
        Server.No_reply
      in
      let backend, started =
        backend net
          ~attrs:{ Qm.default_attrs with strict_fifo = strict }
          ~stale_timeout:30.0
          (Some { World.queue = "req"; threads = servers; handler })
      in
      let server = List.hd started in
      fun () ->
        let qm = Site.qm backend in
        let h, _ =
          Qm.register qm ~queue:"req" ~registrant:"loader" ~stable:false
        in
        for i = 1 to jobs do
          let env =
            Envelope.make ~rid:(Printf.sprintf "j%d" i) ~client_id:"loader"
              ~reply_node:"backend" ~reply_queue:"req" "job"
          in
          ignore
            (Qm.auto_commit qm (fun id ->
                 Qm.enqueue qm id h ~props:(Envelope.props env)
                   env.Envelope.body))
        done;
        let start = Sched.clock () in
        ignore
          (Runner.await ~timeout:3000.0 ~poll:0.05 (fun () ->
               Server.processed server >= jobs));
        let makespan = Sched.clock () -. start in
        {
          mode = (if strict then "strict FIFO" else "skip-locked");
          servers;
          jobs;
          makespan;
          throughput = float_of_int jobs /. makespan;
        })

let run_drain ?(jobs = 60) ?(work = 0.05) () =
  List.concat_map
    (fun strict ->
      List.map
        (fun servers -> one_drain_run ~strict ~servers ~jobs ~work ~seed:3)
        [ 1; 2; 4; 8 ])
    [ false; true ]

let drain_table rows =
  let t =
    Table.create
      ~title:
        "B3/B5: draining 60 jobs (50ms each) - skip-locked scales, strict FIFO serializes"
      ~columns:[ "dequeue mode"; "servers"; "makespan (s)"; "jobs/s" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.mode;
          string_of_int r.servers;
          Printf.sprintf "%.2f" r.makespan;
          Printf.sprintf "%.1f" r.throughput;
        ])
    rows;
  t

(* ---- B11: priority scheduling ------------------------------------------ *)

type priority_row = {
  policy : string;
  backlog : int;
  express_jobs : int;
  express_p95 : float;
  standard_p95 : float;
}

(* A backlog of standard jobs is draining; express jobs arrive during the
   drain. With priority scheduling the express jobs jump the backlog. *)
let one_priority_run ~use_priorities ~backlog ~express ~work ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let express_lat = Histogram.create () in
      let standard_lat = Histogram.create () in
      let served = ref 0 in
      let submitted : (string, float) Hashtbl.t = Hashtbl.create 64 in
      let handler _site _txn env =
        Sched.sleep work;
        (match Hashtbl.find_opt submitted env.Envelope.rid with
        | Some t0 ->
          let lat = Sched.clock () -. t0 in
          if String.length env.Envelope.rid >= 3
             && String.sub env.Envelope.rid 0 3 = "exp"
          then Histogram.add express_lat lat
          else Histogram.add standard_lat lat
        | None -> ());
        incr served;
        Server.No_reply
      in
      let backend, _ =
        backend net ~stale_timeout:60.0
          (Some { World.queue = "req"; threads = 2; handler })
      in
      fun () ->
        let qm = Site.qm backend in
        let h, _ =
          Qm.register qm ~queue:"req" ~registrant:"load" ~stable:false
        in
        let push rid priority =
          Hashtbl.replace submitted rid (Sched.clock ());
          let env =
            Envelope.make ~rid ~client_id:"load" ~reply_node:"backend"
              ~reply_queue:"req" "job"
          in
          ignore
            (Qm.auto_commit qm (fun id ->
                 Qm.enqueue qm id h ~props:(Envelope.props env) ~priority
                   env.Envelope.body))
        in
        for i = 1 to backlog do
          push (Printf.sprintf "std%d" i) 0
        done;
        (* express jobs trickle in while the backlog drains *)
        ignore
          (Sched.fork ~name:"express" (fun () ->
               for i = 1 to express do
                 Sched.sleep 0.3;
                 push (Printf.sprintf "exp%d" i) (if use_priorities then 9 else 0)
               done));
        ignore
          (Runner.await ~timeout:600.0 (fun () -> !served >= backlog + express));
        {
          policy = (if use_priorities then "priority scheduling" else "FIFO only");
          backlog;
          express_jobs = express;
          express_p95 = Histogram.percentile express_lat 0.95;
          standard_p95 = Histogram.percentile standard_lat 0.95;
        })

let run_priority ?(backlog = 40) ?(express = 5) ?(work = 0.1) () =
  [
    one_priority_run ~use_priorities:false ~backlog ~express ~work ~seed:9;
    one_priority_run ~use_priorities:true ~backlog ~express ~work ~seed:9;
  ]

let priority_table rows =
  let t =
    Table.create
      ~title:
        "B11: priority scheduling (sec. 11) - express requests vs a 40-job backlog"
      ~columns:
        [ "policy"; "backlog"; "express jobs"; "express p95 (s)"; "standard p95 (s)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.policy;
          string_of_int r.backlog;
          string_of_int r.express_jobs;
          Printf.sprintf "%.2f" r.express_p95;
          Printf.sprintf "%.2f" r.standard_p95;
        ])
    rows;
  t

(* ---- A1 ablation: error queues off ------------------------------------- *)

type poison_row = {
  p_policy : string;
  good_served : int;
  wasted_executions : int;
  poison_parked : bool;
}

(* One poisonous request among a stream of good ones. With the error-queue
   machinery (retry limit n) the poison is parked after n attempts; with it
   ablated (infinite retries) the server burns capacity re-executing it
   forever (the "cyclic restart" of paper 4.2/5). *)
let one_poison_run ~retry_limit ~good ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let wasted = ref 0 and served = ref 0 in
      let handler _site _txn env =
        Sched.sleep 0.05;
        if env.Envelope.body = "poison" then begin
          incr wasted;
          failwith "cannot process"
        end;
        incr served;
        Server.No_reply
      in
      let backend, _ =
        backend net ~attrs:{ Qm.default_attrs with retry_limit } ~stale_timeout:60.0
          (Some { World.queue = "req"; threads = 1; handler })
      in
      fun () ->
        let qm = Site.qm backend in
        let h, _ =
          Qm.register qm ~queue:"req" ~registrant:"load" ~stable:false
        in
        let push rid body =
          let env =
            Envelope.make ~rid ~client_id:"load" ~reply_node:"backend"
              ~reply_queue:"req" body
          in
          ignore
            (Qm.auto_commit qm (fun id ->
                 Qm.enqueue qm id h ~props:(Envelope.props env)
                   env.Envelope.body))
        in
        push "bad" "poison";
        for i = 1 to good do
          push (Printf.sprintf "g%d" i) "fine"
        done;
        (* run for a fixed window; good requests should all finish *)
        ignore (Runner.await ~timeout:60.0 (fun () -> !served >= good));
        Sched.sleep 5.0;
        {
          p_policy =
            (if retry_limit >= 1_000_000 then "no error queue (ablated)"
             else Printf.sprintf "error queue after %d aborts" retry_limit);
          good_served = !served;
          wasted_executions = !wasted;
          poison_parked =
            Qm.queue_exists qm "req.err" && Qm.depth qm "req.err" = 1;
        })

let run_poison ?(good = 30) () =
  [
    one_poison_run ~retry_limit:1_000_000 ~good ~seed:15;
    one_poison_run ~retry_limit:3 ~good ~seed:15;
  ]

let poison_table rows =
  let t =
    Table.create
      ~title:
        "A1 (ablation): error queues vs cyclic restart of a poisonous request (secs. 4.2, 5)"
      ~columns:
        [ "policy"; "good served"; "poison executions"; "poison parked in error queue" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.p_policy;
          string_of_int r.good_served;
          string_of_int r.wasted_executions;
          (if r.poison_parked then "yes" else "no");
        ])
    rows;
  t

(* ---- B4: burst absorption ---------------------------------------------- *)

type burst_row = {
  system : string;
  offered : int;
  served : int;
  rejected : int;
  b_makespan : float;
  max_depth : int;
}

type Net.payload += B_job of string | B_ok | B_busy

let one_burst_run ~queued ~offered ~service_time ~capacity ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let served = ref 0 and rejected = ref 0 in
      let max_depth = ref 0 in
      let handler _site _txn _env =
        Sched.sleep service_time;
        incr served;
        Server.No_reply
      in
      let backend, _ =
        backend net ~stale_timeout:60.0
          (if queued then Some { World.queue = "req"; threads = capacity; handler }
           else None)
      in
      (if not queued then begin
         (* Queueless server: [capacity] concurrent executions, no waiting
            room - excess arrivals are rejected busy. *)
         let active = ref 0 in
         Site.on_boot backend (fun site ->
             Net.add_service (Site.node site) "direct" (fun msg ->
                 match msg with
                 | B_job _ ->
                   if !active >= capacity then B_busy
                   else begin
                     incr active;
                     Sched.sleep service_time;
                     decr active;
                     incr served;
                     B_ok
                   end
                 | _ -> raise (Invalid_argument "direct: unexpected message")))
       end);
      let client_node = Net.make_node net "client" in
      fun () ->
        let qm = Site.qm backend in
        let h, _ =
          Qm.register qm ~queue:"req" ~registrant:"burst" ~stable:false
        in
        let rng = Rng.create (seed + 7) in
        let start = Sched.clock () in
        (* Poisson burst: [offered] arrivals in roughly one second. *)
        for i = 1 to offered do
          ignore
            (Sched.fork ~name:(Printf.sprintf "a%d" i) (fun () ->
                 Sched.sleep (Rng.float rng 1.0);
                 if queued then begin
                   let env =
                     Envelope.make ~rid:(Printf.sprintf "b%d" i)
                       ~client_id:"burst" ~reply_node:"backend"
                       ~reply_queue:"req" "job"
                   in
                   ignore
                     (Qm.auto_commit qm (fun id ->
                          Qm.enqueue qm id h ~props:(Envelope.props env)
                            env.Envelope.body));
                   max_depth := max !max_depth (Qm.depth qm "req")
                 end
                 else begin
                   match
                     Net.call client_node ~timeout:30.0 ~dst:"backend"
                       ~service:"direct" (B_job "job")
                   with
                   | B_ok -> ()
                   | B_busy -> incr rejected
                   | _ -> incr rejected
                   | exception e when Rrq_util.Swallow.nonfatal e ->
                     incr rejected
                 end))
        done;
        ignore
          (Runner.await ~timeout:600.0 (fun () -> !served + !rejected >= offered));
        let makespan = Sched.clock () -. start in
        {
          system = (if queued then "queued" else "no queue (reject when busy)");
          offered;
          served = !served;
          rejected = !rejected;
          b_makespan = makespan;
          max_depth = !max_depth;
        })

let run_burst ?(offered = 100) ?(service_time = 0.08) ?(capacity = 3) () =
  [
    one_burst_run ~queued:false ~offered ~service_time ~capacity ~seed:5;
    one_burst_run ~queued:true ~offered ~service_time ~capacity ~seed:5;
  ]

let burst_table rows =
  let t =
    Table.create
      ~title:
        "B4: absorbing a 100-request burst (3 servers, 80ms service time)"
      ~columns:
        [ "system"; "offered"; "served"; "rejected"; "makespan (s)"; "max queue depth" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.system;
          string_of_int r.offered;
          string_of_int r.served;
          string_of_int r.rejected;
          Printf.sprintf "%.2f" r.b_makespan;
          string_of_int r.max_depth;
        ])
    rows;
  t
