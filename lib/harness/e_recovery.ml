(* B7: recovery cost under the node log's checkpoint rule (paper §10:
   queues are main-memory databases that must log updates; checkpoints
   bound replay work). Runs directly against a QM on a disk (no network
   needed): enqueue a stream of elements with some dequeues, crash, and
   measure the recovery work of re-opening the repository. The log cuts
   itself once it holds as many bytes as the last snapshot (256 KiB at
   least), so each row also shows what that costs: the checkpoint bytes
   written against the log bytes appended, which is what a log never
   checkpointed would have to replay.

   Recovery time is measured on the {e simulated} clock, under an explicit
   replay-cost model ([replay_bytes_per_sec]): re-opening scans the live
   log, and the experiment charges the scan at a fixed device rate, exactly
   like [Disk.sync_latency] charges forces. Host time would make the row
   nondeterministic and break byte-identical trace replay (rrq_lint R2);
   virtual time makes the B7 table a pure function of the workload. *)

module Disk = Rrq_storage.Disk
module Qm = Rrq_qm.Qm
module Sched = Rrq_sim.Sched
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner

type row = {
  ops : int;
  log_bytes : int;
  appended_bytes : int;
  checkpoint_bytes : int;
  recovery_seconds : float;
  recovered_elements : int;
}

(* The modeled log-scan rate: a sequential read of a warm main-memory log.
   The absolute value only scales the column; the shape of the table (how
   checkpointing bounds replay) is what the experiment demonstrates. *)
let replay_bytes_per_sec = 256.0 *. 1024.0 *. 1024.0

let one_run ops =
  Rrq_obs.reset ();
  Fun.protect ~finally:Rrq_obs.disable @@ fun () ->
  Runner.run_scenario (fun _s () ->
      let disk = Disk.create "bench" in
      let qm = ref (Qm.open_qm disk ~name:"qm") in
      Qm.create_queue !qm "q";
      let h, _ = Qm.register !qm ~queue:"q" ~registrant:"bench" ~stable:false in
      let payload = String.make 128 'x' in
      for i = 1 to ops do
        ignore (Qm.auto_commit !qm (fun id -> Qm.enqueue !qm id h payload));
        (* dequeue half of them so recovery replays both kinds of records *)
        if i mod 2 = 0 then
          ignore (Qm.auto_commit !qm (fun id -> Qm.dequeue !qm id h Qm.No_wait))
      done;
      let log_bytes = Qm.live_log_bytes !qm in
      let counter name = Rrq_obs.Metrics.counter (name ^ ":qm.log") in
      let appended_bytes =
        counter "wal.bytes" + (Rrq_wal.Wal.frame_header * counter "wal.appends")
      in
      let checkpoint_bytes = counter "wal.ckpt_bytes" in
      Disk.crash disk;
      let t0 = Sched.clock () in
      let reopened = Qm.open_qm disk ~name:"qm" in
      Sched.sleep (float_of_int log_bytes /. replay_bytes_per_sec);
      let recovery_seconds = Sched.clock () -. t0 in
      {
        ops;
        log_bytes;
        appended_bytes;
        checkpoint_bytes;
        recovery_seconds;
        recovered_elements = Qm.depth reopened "q";
      })

let run ?(sizes = [ 1_000; 5_000; 20_000 ]) () = List.map one_run sizes

let table rows =
  let t =
    Table.create
      ~title:
        "B7: recovery time and log size under the checkpoint rule (128-byte payloads)"
      ~columns:
        [ "ops"; "live log KB"; "log KB appended"; "checkpoint KB written";
          "recovery (virt ms)"; "elements recovered" ]
  in
  let kb n = Printf.sprintf "%.1f" (float_of_int n /. 1024.0) in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.ops;
          kb r.log_bytes;
          kb r.appended_bytes;
          kb r.checkpoint_bytes;
          Printf.sprintf "%.4f" (r.recovery_seconds *. 1000.0);
          string_of_int r.recovered_elements;
        ])
    rows;
  t
