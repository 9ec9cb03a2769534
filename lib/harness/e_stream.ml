(* B10: the streaming extension (paper §11 / Mercury). The one-at-a-time
   Client Model pays a full round trip per request; a window of concurrent
   per-thread sessions hides the link latency. Sweep the window width over
   a high-latency link and measure makespan. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Stream_clerk = Rrq_core.Stream_clerk
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module World = Rrq_check.World

type row = {
  width : int;
  requests : int;
  latency : float;
  elapsed : float;
  throughput : float;
  exactly_once : bool;
}

let one_run ~width ~requests ~latency ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create ~latency s (Rng.create seed) in
      let handler site txn env =
        ignore
          (Kvdb.add (Site.kv site) (Tm.txn_id txn)
             ("exec:" ^ env.Rrq_core.Envelope.rid) 1);
        Server.Reply "ok"
      in
      let server = Some { World.queue = "req"; threads = max 8 width; handler } in
      let world =
        World.build net { (World.single "backend") with stale_timeout = 10.0; server }
      in
      let backend = World.site world "backend" in
      let client_node = Net.make_node net "client" in
      fun () ->
        let stream =
          Stream_clerk.connect ~client_node ~system:"backend" ~client_id:"s"
            ~req_queue:"req" ~width ()
        in
        let start = Sched.clock () in
        for i = 1 to requests do
          Stream_clerk.submit stream ~rid:(Printf.sprintf "r%d" i) "job"
        done;
        let replies = Stream_clerk.drain stream () in
        let elapsed = Sched.clock () -. start in
        let rids = List.init requests (fun i -> Printf.sprintf "r%d" (i + 1)) in
        let lost, exact, dup = Rrq_check.Audit.audit_executions [ backend ] ~rids in
        {
          width;
          requests;
          latency;
          elapsed;
          throughput = float_of_int (List.length replies) /. elapsed;
          exactly_once = lost = 0 && dup = 0 && exact = requests;
        })

let run ?(requests = 24) ?(latency = 0.05) () =
  List.map
    (fun width -> one_run ~width ~requests ~latency ~seed:61)
    [ 1; 2; 4; 8 ]

let table rows =
  let t =
    Table.create
      ~title:
        "B10: streaming requests/replies (sec. 11, Mercury-style) over a 50ms link"
      ~columns:
        [ "window width"; "requests"; "elapsed (s)"; "req/s"; "exactly-once" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.width;
          string_of_int r.requests;
          Printf.sprintf "%.2f" r.elapsed;
          Printf.sprintf "%.1f" r.throughput;
          (if r.exactly_once then "yes" else "NO");
        ])
    rows;
  t
