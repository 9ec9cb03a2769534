(** Group commit: batched log forcing for commit points.

    The paper's §10 treats recoverable queues as main-memory databases that
    still must log updates, which makes the commit-point log force the
    dominant cost of every [Enqueue]/[Dequeue]. With one {!Rrq_storage.Disk}
    sync per transaction, N concurrent servers draining a queue pay N device
    flushes where one would do. This module coalesces them: committers call
    {!force}, and under the [Adaptive] policy one caller becomes the
    {e leader} — it decides from the commit arrival rate whether to wait
    for company, issues a single sync covering every record appended so
    far, and wakes all parked {e followers} whose records made it out.

    The contract callers must follow (and all RMs/TMs in this repo do):

    + append the commit record(s) with {!append};
    + apply their effects to memory {e without yielding};
    + call {!force} and only acknowledge the transaction after it returns.

    Because effects are applied before the first yield, a checkpoint taken
    while commits are parked still snapshots their effects, which is why
    [Wal.checkpoint] may advance the durable LSN past unsynced records.

    A crash between append and the batched sync therefore loses only
    transactions that were never acknowledged; acknowledged ones are covered
    by the sync (or checkpoint) that preceded the acknowledgement. The
    crash-point suite in [test/test_group_commit.ml] sweeps exactly this
    window.

    [Immediate] (the default) preserves the historical one-sync-per-commit
    behavior and works outside the simulator; [Adaptive] parks fibers and
    is only meaningful inside it (outside a fiber it degrades to a direct
    sync). Both policies charge the disk's [sync_latency] device model
    when running in a fiber, so the simulator measures realistic commit
    cost.

    [Adaptive] estimates the commit arrival rate — an EWMA of force-call
    inter-arrival time sampled from the virtual clock — and seals each
    batch by whichever rule fits the estimate: seal immediately when the
    device keeps up ([`idle`]), seal as soon as the predicted batch has
    boarded ([`rate`] / [`full`]), or give up on stragglers after a
    bounded wait ([`timeout`]). So light load costs what [Immediate] costs
    and heavy load shares one flush among many commits (B12). Seal-reason
    counts are exported as [gc.seal.<reason>:<wal>] counters and on the
    [Batch_seal] trace event. *)

type policy =
  | Immediate  (** Force at every commit: one sync per call (historical). *)
  | Adaptive of { max_delay : float; max_batch : int }
      (** Leader sizes the batch from the arrival-rate estimate: the
          target is [sync_latency / ewma_interarrival] commits (clamped to
          [max_batch]), the window is bounded by [max_delay], and an
          estimate below ~1.5 commits per flush seals immediately, which
          makes light load behave like [Immediate]. *)

type t

val create : ?policy:policy -> Wal.t -> t
(** Batcher for [wal]. Default policy is [Immediate]. *)

val policy : t -> policy
val wal : t -> Wal.t

val append : t -> string -> unit
(** Buffer a record at the log tail (same as [Wal.append]). *)

val append_enc : t -> Rrq_util.Codec.encoder -> unit
(** Buffer a record straight from an encoder (same as [Wal.append_enc]):
    the zero-copy path main-memory commits use. *)

val force : t -> unit
(** Make every record appended so far durable before returning. Under
    [Adaptive] the calling fiber may be parked while a leader's sync covers
    it. If the disk is dead (crash-point injection), returns without
    durability — mirroring the historical [append_sync] semantics where
    the process is about to be declared crashed anyway. *)

val append_force : t -> string -> unit
(** [append] then [force]. *)

(** {1 Log shipping (primary-backup replication)}

    A {e shipper} turns this batcher into the sending half of a
    primary-backup log-shipping channel: while one is installed, every
    appended record is retained as an [(lsn, payload)] pair and a ship
    round sends the durable prefix of the retained set to the callback in
    LSN order, advancing the {e shipped LSN} watermark (the replication
    analogue of the durable LSN). Ship rounds use the same leader/follower
    protocol as batched syncs, so concurrent committers amortise one send.

    In [sync] mode (the default) {!force} does not return until the
    caller's records are shipped — the replication counterpart of the
    durability-before-reply rule: a transaction is only acknowledged once
    the backup could take over without losing it. With [sync:false] the
    owner must drain with {!ship_now} periodically; replies may then be
    released ahead of the backup (speculative replies), which is exactly
    the window the HA failover tests probe. *)

val set_shipper : ?sync:bool -> t -> ((int * string) list -> unit) -> unit
(** Install the shipping callback. The callback receives a batch of
    [(lsn, record)] pairs in LSN order and must deliver them (it may
    block; it must not raise — degrade handling belongs to the owner).
    Installation resets the retained set and sets the shipped watermark
    to the current durable LSN: the installer is responsible for bringing
    the peer up to date first (snapshot install). *)

val clear_shipper : t -> unit
(** Stop shipping (peer lost / degraded); wakes any fiber parked on a
    ship round. *)

val shipping : t -> bool
val shipped_lsn : t -> int
val pending_ship : t -> int
(** Retained records not yet shipped. *)

val ship_in_flight : t -> bool
(** A ship round is running its shipper callback. Its records are durable
    here, and the fibers it covers are still waiting to apply them. *)

val ship_now : t -> unit
(** Ship every durable retained record now (the lagged mode's periodic
    drain; a no-op when nothing is pending or no shipper is installed). *)

(** {1 Accounting} *)

val ships : t -> int
(** Number of non-empty batches handed to the shipper. *)

val forces : t -> int
(** Number of {!force} calls that had undurable records to cover. *)

val syncs : t -> int
(** Number of physical device syncs issued by this batcher. Under
    [Adaptive] with concurrent committers on a slow device this is less
    than {!forces} — the whole point. *)

val seal_counts : t -> (string * int) list
(** How many batches sealed for each reason, as
    [("full" | "timeout" | "idle" | "rate" | "immediate") * count].
    [full]: the batch hit [max_batch]; [timeout]: the window expired;
    [idle]: the rate estimate said batching would not pay, so the leader
    sealed at once; [rate]: the predicted batch boarded before the window
    closed; [immediate]: an [Immediate]-policy force or an outside-fiber
    degrade. *)
