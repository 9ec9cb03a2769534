(** B12: the commit-path cost of one log force per transaction, and how
    group commit removes it.

    Paper §10 prices a recoverable queue operation at "a disk write to log
    the update" — with one forced write per enqueue/dequeue, the log device
    caps system throughput at one transaction per device flush regardless
    of server parallelism. This experiment drains a preloaded queue with N
    concurrent server fibers over a disk whose flush occupies the device
    for a fixed virtual latency, comparing the [Immediate] (one sync per
    commit) and [Adaptive] ({!Rrq_wal.Group_commit}) policies. The adaptive
    rows should match immediate at one server, then show syncs/commit well
    below 1 and throughput scaling with N, while immediate rows stay pinned
    near [1/sync_latency]. *)

type row = {
  policy : string;
  servers : int;
  commits : int;
  elapsed : float;  (** Virtual seconds to drain the queue. *)
  commits_per_sec : float;
  syncs_per_commit : float;  (** Device flushes per committed dequeue. *)
  commit_p50 : float;  (** Median dequeue commit latency (virtual s). *)
  commit_p99 : float;
  seals : (string * int) list;
      (** Group-commit seal counts by reason (full/timeout/idle/rate/
          immediate) during the drain — see [Group_commit.seal_counts]. *)
}

val default_adaptive : Rrq_wal.Group_commit.policy
(** Adaptive sealing, capped at a 0.5ms window and 64-commit batches. *)

val one_run :
  policy:Rrq_wal.Group_commit.policy ->
  servers:int ->
  jobs:int ->
  sync_latency:float ->
  row

val run : ?jobs:int -> ?sync_latency:float -> unit -> row list
(** Sweep every server count in [1..16] under [Immediate] and
    {!default_adaptive}. Defaults: 200 jobs, 1ms per device flush. *)

val table : row list -> Rrq_util.Table.t
(** One row per run, with a seal-reason column, so [--json] rows carry the
    seal counters. *)
