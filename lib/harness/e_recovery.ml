(* B7: recovery cost vs. checkpointing (paper §10: queues are main-memory
   databases that must log updates; checkpoints bound replay work). Runs
   directly against a QM on a disk (no network needed): enqueue a stream of
   elements with some dequeues, crash, and measure the recovery work of
   re-opening the repository.

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

type row = {
  ops : int;
  checkpoint_every : int option;
  log_bytes : int;
  recovery_seconds : float;
  recovered_elements : int;
}

(* The modeled log-scan rate: a sequential read of a warm main-memory log.
   The absolute value only scales the column; the shape of the table (how
   checkpointing bounds replay) is what the experiment demonstrates. *)
let replay_bytes_per_sec = 256.0 *. 1024.0 *. 1024.0

let one_run ~ops ~checkpoint_every =
  Common.run_scenario (fun _s () ->
      let disk = Disk.create "bench" in
      let qm = ref (Qm.open_qm disk ~name:"qm") in
      Qm.create_queue !qm "q";
      let h, _ = Qm.register !qm ~queue:"q" ~registrant:"bench" ~stable:false in
      let payload = String.make 128 'x' in
      for i = 1 to ops do
        ignore (Qm.auto_commit !qm (fun id -> Qm.enqueue !qm id h payload));
        (* dequeue half of them so recovery replays both kinds of records *)
        if i mod 2 = 0 then
          ignore (Qm.auto_commit !qm (fun id -> Qm.dequeue !qm id h Qm.No_wait));
        match checkpoint_every with
        | Some every -> Rrq_txn.Node_log.maybe_checkpoint (Qm.log !qm) ~every
        | None -> ()
      done;
      let log_bytes = Qm.live_log_bytes !qm in
      Disk.crash disk;
      let t0 = Sched.clock () in
      let reopened = Qm.open_qm disk ~name:"qm" in
      Sched.sleep (float_of_int log_bytes /. replay_bytes_per_sec);
      let recovery_seconds = Sched.clock () -. t0 in
      {
        ops;
        checkpoint_every;
        log_bytes;
        recovery_seconds;
        recovered_elements = Qm.depth reopened "q";
      })

let run ?(sizes = [ 1_000; 5_000; 20_000 ]) () =
  List.concat_map
    (fun ops ->
      [
        one_run ~ops ~checkpoint_every:None;
        one_run ~ops ~checkpoint_every:(Some 1000);
      ])
    sizes

let table rows =
  let t =
    Table.create
      ~title:"B7: recovery time and log size vs checkpointing (128-byte payloads)"
      ~columns:
        [ "ops"; "checkpoint every"; "live log KB"; "recovery (virt ms)";
          "elements recovered" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.ops;
          (match r.checkpoint_every with
          | None -> "never"
          | Some n -> string_of_int n);
          Printf.sprintf "%.1f" (float_of_int r.log_bytes /. 1024.0);
          Printf.sprintf "%.4f" (r.recovery_seconds *. 1000.0);
          string_of_int r.recovered_elements;
        ])
    rows;
  t
