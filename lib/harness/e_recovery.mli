(** Experiment B7 (paper §10): recovery cost of a queue repository treated
    as a main-memory database with a log, under the node log's checkpoint
    rule, and the checkpoint bytes that rule writes. *)

type row = {
  ops : int;
  log_bytes : int;  (** Live log at the crash: what recovery scans. *)
  appended_bytes : int;
      (** Log frame bytes appended in the whole run: what a log that is
          never checkpointed would scan. *)
  checkpoint_bytes : int;  (** Checkpoint file bytes written in the run. *)
  recovery_seconds : float;
      (** Virtual seconds to re-open after a crash, under the deterministic
          replay-cost model (live log scanned at a fixed device rate) — a
          pure function of the workload, so the B7 table is replayable. *)
  recovered_elements : int;
}

val run : ?sizes:int list -> unit -> row list
val table : row list -> Rrq_util.Table.t
