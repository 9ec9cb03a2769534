(** B12: the commit-path cost of one log force per transaction, and how
    group commit removes it.

    Paper §10 prices a recoverable queue operation at "a disk write to log
    the update" — with one forced write per enqueue/dequeue, the log device
    caps system throughput at one transaction per device flush regardless
    of server parallelism. This experiment drains a preloaded queue with N
    concurrent server fibers over a disk whose flush occupies the device
    for a fixed virtual latency, through {!Rrq_wal.Group_commit}. Each row
    sits beside the analytic no-batching ceiling: with one sync per commit,
    throughput is pinned at [1/sync_latency] and the median commit waits
    [servers * sync_latency]. Group commit should match that at one server,
    then show syncs/commit well below 1 and throughput scaling with N. *)

type row = {
  servers : int;
  commits : int;
  elapsed : float;  (** Virtual seconds to drain the queue. *)
  commits_per_sec : float;
  syncs_per_commit : float;  (** Device flushes per committed dequeue. *)
  commit_p50 : float;  (** Median dequeue commit latency (virtual s). *)
  commit_p99 : float;
  sync_latency : float;  (** The device flush latency the run used. *)
}

val one_run : servers:int -> jobs:int -> sync_latency:float -> row

val run : ?jobs:int -> ?sync_latency:float -> unit -> row list
(** Sweep every server count in [1..16]. Defaults: 200 jobs, 1ms per device
    flush. *)

val table : row list -> Rrq_util.Table.t
(** One row per run, with the no-batching ceiling's commits/s and p50 in
    the last two columns. *)
