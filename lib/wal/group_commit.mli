(** Group commit: batched log forcing for commit points.

    The paper's §10 treats recoverable queues as main-memory databases that
    still must log updates, which makes the commit-point log force the
    dominant cost of every [Enqueue]/[Dequeue]. With one {!Rrq_storage.Disk}
    sync per transaction, N concurrent servers draining a queue pay N device
    flushes where one would do. This module coalesces them, and it is the
    only way a log is forced: committers call {!force}, and it has one
    rule. The first committer that finds no sync under way becomes the
    {e leader} and flushes at once: one sync covers every record appended
    before it ends. Committers that arrive while that flush runs park as
    {e followers}, and the flush that covers them wakes them. So an idle
    device costs one flush per commit, and a saturated one shares each
    flush among its leader and every commit that arrived while it ran
    (B12).

    The contract callers must follow (and all RMs/TMs in this repo do):

    + append the commit record(s) with {!append_enc};
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

    A node's resource managers share one log and one batcher
    ({!Rrq_txn.Node_log}), which follows this contract for all of them.

    Followers park, so batching only happens inside the simulator.
    Outside a fiber nothing can park: {!force} issues one direct sync.
    Inside a fiber each sync is charged against the disk's [sync_latency]
    device model, so the simulator measures realistic commit cost. Each
    flush observes its batch size on the [gc.batch:<wal>] series and emits
    a [Batch_seal] trace event. *)

type t

val create : Wal.t -> t
(** Batcher for [wal]. *)

val append_enc : t -> Rrq_util.Codec.encoder -> unit
(** Buffer a record straight from an encoder (same as [Wal.append_enc]):
    the path every node-log commit record takes. While a shipper is
    installed the record is built as one frame string ([Wal.frame_enc]),
    which the log and the shipper share; spliced strings are copied into
    it then, and only then. *)

val append_frame : t -> string -> unit
(** Buffer a whole WAL frame (same as [Wal.append_frame]): the path a
    record shipped from a primary takes into its standby's log. *)

val force : t -> unit
(** Make every record appended so far durable before returning. A
    calling fiber may be parked while a leader's sync covers it. If the disk is dead (crash-point injection), returns without
    durability — mirroring the historical [append_sync] semantics where
    the process is about to be declared crashed anyway. *)

val append_force : t -> string -> unit
(** Append one record (as [Wal.append]), then {!force}. *)

(** {1 Log shipping (primary-backup replication)}

    A {e shipper} turns this batcher into the sending half of a
    primary-backup log-shipping channel: while one is installed, every
    appended record is retained as an [(lsn, frame)] pair until a {e ship
    round} hands it to the callback. The frame is the string the log
    itself holds ([Wal.frame_enc], then [Wal.append_frame]): length,
    checksum, then the payload at offset {!Wal.frame_header}, so shipping
    copies no record bytes. A
    round carries every record appended since the previous round, in LSN
    order, and runs the callback in a fiber of its own. Rounds overlap: a committer whose records missed the
    rounds already in flight starts the next one at once. The {e shipped
    LSN} watermark (the replication analogue of the durable LSN) advances
    only over a contiguous prefix of finished rounds, so the peer must
    apply rounds in LSN order.

    In [sync] mode (the default) {!force} starts the round that carries the
    caller's records alongside its local sync (the leader starts it before
    its flush, a follower at once), and does not return until both the
    durable LSN and the shipped LSN cover them: a commit waits for the
    slower of its sync and its round trip, not their sum. This is the replication counterpart
    of the durability-before-reply rule: a transaction is only
    acknowledged once the backup could take over without losing it.
    Records may reach the peer before they are durable here, so after a
    crash the peer can hold records this log lost; the owner must not let
    the peer take over with them (see [Ha]). With [sync:false] the owner
    must drain with {!ship_now} periodically; replies may then be released
    ahead of the backup (speculative replies), which is exactly the window
    the HA failover tests probe. *)

val set_shipper : ?sync:bool -> t -> ((int * string) list -> unit) -> unit
(** Install the shipping callback. The callback receives a batch of
    [(lsn, frame)] pairs in LSN order and must deliver them (it may
    block; it must not raise — degrade handling belongs to the owner).
    Installation resets the retained set and sets the shipped watermark
    to the current appended LSN: the installer is responsible for bringing
    the peer up to date first (snapshot install). *)

val clear_shipper : t -> unit
(** Stop shipping (peer lost / degraded); wakes every fiber waiting for a
    ship round. Rounds still in flight finish, but no longer count. *)

val shipping : t -> bool
val shipped_lsn : t -> int

val ship_in_flight : t -> bool
(** Some ship round is still running its shipper callback (possibly for a
    shipper since cleared). The fibers it covers may still be waiting to
    finish their commits. *)

val ship_now : t -> unit
(** Ship every retained record now and wait for the round (the lagged
    mode's periodic drain; a no-op when nothing is pending or no shipper
    is installed). *)

(** {1 Accounting} *)

val forces : t -> int
(** Number of {!force} calls that had undurable records to cover. *)

val syncs : t -> int
(** Number of physical device syncs issued by this batcher. With
    concurrent committers on a slow device this is less than {!forces} —
    the whole point. *)
