(* B12: group commit on the commit path. See the .mli for the paper claim.

   The rig deliberately bypasses Site/Server: we want the commit path and
   nothing else. A queue is preloaded with jobs; [servers] fibers drain it
   with auto-committed dequeues against a disk whose flushes take
   [sync_latency] virtual seconds each (and serialize on the device). If
   every commit paid its own flush, total throughput would be pinned at
   1/sync_latency no matter how many servers run; group commit lets one
   flush cover a whole boatload of commits once the servers outpace the
   device.

   All numbers come from the [Rrq_obs] registry: the QM's own
   auto-commit counter and latency histogram and group commit's sync
   counter, diffed across the drain phase so the preload does not count. *)

module Sched = Rrq_sim.Sched
module Disk = Rrq_storage.Disk
module Qm = Rrq_qm.Qm
module Table = Rrq_util.Table
module Histogram = Rrq_util.Histogram
module Runner = Rrq_check.Runner

type row = {
  servers : int;
  commits : int;
  elapsed : float;
  commits_per_sec : float;
  syncs_per_commit : float;
  commit_p50 : float;
  commit_p99 : float;
  sync_latency : float;
}

let one_run ~servers ~jobs ~sync_latency =
  Rrq_obs.reset ();
  Fun.protect ~finally:Rrq_obs.disable (fun () ->
      Runner.run_scenario (fun s ->
          let disk = Disk.create ~sync_latency "b12" in
          let qm = Qm.open_qm disk ~name:"qm" in
          Qm.set_clock qm (fun () -> Sched.now s);
          Qm.create_queue qm "req";
          let last_commit = ref 0.0 in
          fun () ->
            let h, _ =
              Qm.register qm ~queue:"req" ~registrant:"drain" ~stable:false
            in
            for i = 1 to jobs do
              ignore
                (Qm.auto_commit qm (fun id ->
                     Qm.enqueue qm id h (Printf.sprintf "job%d" i)))
            done;
            (* Only the drain phase is under measurement. *)
            let before = Rrq_obs.Metrics.snapshot () in
            let start = Sched.clock () in
            let fibers =
              List.init servers (fun i ->
                  Sched.fork ~name:(Printf.sprintf "server%d" i) (fun () ->
                      let rec loop () =
                        match
                          Qm.auto_commit qm (fun id ->
                              Qm.dequeue qm id h Qm.No_wait)
                        with
                        | Some _ ->
                          last_commit := Sched.clock ();
                          loop ()
                        | None -> ()
                      in
                      loop ()))
            in
            ignore
              (Runner.await ~timeout:3000.0 ~poll:0.01 (fun () ->
                   not (List.exists Sched.alive fibers)));
            let d =
              Rrq_obs.Metrics.diff ~before
                ~after:(Rrq_obs.Metrics.snapshot ())
            in
            let commits = Rrq_obs.Metrics.find_counter d "qm.auto_commits:qm" in
            let syncs = Rrq_obs.Metrics.find_counter d "gc.syncs:qm.log" in
            let lat = Rrq_obs.Metrics.histogram d "qm.commit.latency:qm" in
            (* Poll granularity must not skew throughput: stop the clock at
               the last commit, not at the poll that noticed it. *)
            let elapsed = !last_commit -. start in
            {
              servers;
              commits;
              elapsed;
              commits_per_sec =
                (if elapsed > 0.0 then float_of_int commits /. elapsed else 0.0);
              syncs_per_commit =
                (if commits > 0 then float_of_int syncs /. float_of_int commits
                 else 0.0);
              commit_p50 = Histogram.percentile lat 0.50;
              commit_p99 = Histogram.percentile lat 0.99;
              sync_latency;
            }))

(* Every server count from 1 to 16, not powers of two: group commit must
   match one flush per commit at one server and scale past it at every
   count where the device saturates, so no in-between count may hide a
   stall. *)
let run ?(jobs = 200) ?(sync_latency = 0.001) () =
  List.init 16 (fun i -> one_run ~servers:(i + 1) ~jobs ~sync_latency)

let table rows =
  let t =
    Table.create
      ~title:
        "B12: group commit - 200 auto-committed dequeues, 1ms disk flush (sec. 10)"
      ~columns:
        [
          "servers";
          "commits";
          "elapsed (s)";
          "commits/s";
          "syncs/commit";
          "p50 commit (ms)";
          "p99 commit (ms)";
          "no-batch commits/s";
          "no-batch p50 (ms)";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.servers;
          string_of_int r.commits;
          Printf.sprintf "%.3f" r.elapsed;
          Printf.sprintf "%.0f" r.commits_per_sec;
          Printf.sprintf "%.3f" r.syncs_per_commit;
          Printf.sprintf "%.2f" (r.commit_p50 *. 1000.0);
          Printf.sprintf "%.2f" (r.commit_p99 *. 1000.0);
          (* The no-batching ceiling: one flush per commit serializes on
             the device, so throughput is 1/sync_latency and a commit
             waits behind every other server's flush. *)
          Printf.sprintf "%.0f" (1.0 /. r.sync_latency);
          Printf.sprintf "%.2f"
            (float_of_int r.servers *. r.sync_latency *. 1000.0);
        ])
    rows;
  t
