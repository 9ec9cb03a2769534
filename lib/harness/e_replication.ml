(* B9: the cost of replicated queues (paper §11: one-copy replication
   "despite the cost of such strong synchronization"). Compares a plain
   single-copy queue against a primary-backup pair coupled by synchronous
   WAL shipping ({!Rrq_core.Ha}): every commit force on the primary gates
   on the backup's acknowledgement, so the pair latency is the price of
   the one-copy guarantee. Every disk flush takes [flush] seconds; a ship
   round (two hops and the backup's own flush) overlaps the primary's, so
   a commit pays the longer of the two. The benefit side: after losing
   the primary the standby promotes and still holds the element. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Ha = Rrq_core.Ha
module Runner = Rrq_check.Runner
module World = Rrq_check.World
module Table = Rrq_util.Table
module Histogram = Rrq_util.Histogram

type row = {
  config : string;
  ops : int;
  elapsed : float;
  ops_per_s : float;
  p95_latency : float;
  survives_site_loss : bool;
}

(* One disk flush, the device model of the request-path load benchmark. *)
let flush = 0.005

let one_run ~replicated ~ops ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let pair =
        { World.primary = "siteA"; standby = "siteB"; mode = Ha.Sync;
          sync_latency = flush; cold = None }
      in
      let repos = [ (if replicated then World.Pair pair else Single "siteA") ] in
      let queues = [ ("q", Qm.default_attrs) ] in
      let world =
        World.build net
          {
            (World.single "siteA") with
            repos;
            queues;
            stale_timeout = 5.0;
            sync_latency = flush;
          }
      in
      let a = World.site world "siteA" in
      fun () ->
        (* Replicated run: wait for the link before timing anything, so
           every commit force below really pays the shipping round trip. *)
        if replicated then ignore (Runner.await (fun () -> World.ready world));
        let h, _ =
          Qm.register (Site.qm a) ~queue:"q" ~registrant:"bench" ~stable:true
        in
        let lat = Histogram.create () in
        let start = Sched.clock () in
        for i = 1 to ops do
          let t0 = Sched.clock () in
          ignore
            (Site.with_txn a (fun txn ->
                 ignore
                   (Qm.enqueue (Site.qm a) (Tm.txn_id txn) h
                      (Printf.sprintf "p%d" i))));
          ignore
            (Site.with_txn a (fun txn ->
                 ignore (Qm.dequeue (Site.qm a) (Tm.txn_id txn) h Qm.No_wait)));
          Histogram.add lat (Sched.clock () -. t0)
        done;
        let elapsed = Sched.clock () -. start in
        (* Does an element survive losing the site it was enqueued on? *)
        ignore
          (Site.with_txn a (fun txn ->
               ignore (Qm.enqueue (Site.qm a) (Tm.txn_id txn) h "survivor")));
        Site.crash a;
        let survives =
          replicated
          && begin
            (* The standby misses the heartbeats, promotes, and must find
               the shipped element in its replayed queue; a single copy
               dies with siteA. *)
            Runner.await ~timeout:30.0 (fun () ->
                Ha.is_serving (World.ha world "siteB"))
            && Qm.depth (Site.qm (World.site world "siteB")) "q" = 1
          end
        in
        {
          config =
            (if replicated then "replicated (primary-backup, WAL shipping)"
             else "single copy");
          ops;
          elapsed;
          ops_per_s = float_of_int (2 * ops) /. elapsed;
          p95_latency = Histogram.percentile lat 0.95;
          survives_site_loss = survives;
        })

let run ?(ops = 100) ?(seed = 51) () =
  [
    one_run ~replicated:false ~ops ~seed; one_run ~replicated:true ~ops ~seed;
  ]

let table rows =
  let t =
    Table.create
      ~title:"B9: replicated queues - the cost and benefit of one-copy replication (sec. 11)"
      ~columns:
        [ "configuration"; "enq+deq pairs"; "elapsed (s)"; "ops/s";
          "p95 pair latency (s)"; "element survives site loss" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.config;
          string_of_int r.ops;
          Printf.sprintf "%.2f" r.elapsed;
          Printf.sprintf "%.1f" r.ops_per_s;
          Printf.sprintf "%.4f" r.p95_latency;
          (if r.survives_site_loss then "yes" else "no");
        ])
    rows;
  t
