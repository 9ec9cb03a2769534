(** One log per node: the write-ahead log and the group-commit batcher that
    a node's transaction manager, queue manager and KV store all append
    to.

    Gray's "Queues Are Databases" puts the queue manager inside the
    database's recovery manager, so that a dequeue–update–enqueue is a
    local transaction that needs no two-phase commit. This module is that
    recovery manager's log. Every record is a list of {e sections}, each
    tagged with the kind of resource manager that owns it, so one record
    carries a whole local transaction: the QM's dequeue and enqueue and
    the KV store's writes. A transaction with remote participants writes
    two records: a staged one (the local sections as in-doubt, and the TM's
    list of remote participants) and the decision. The WAL frames and checksums the record as one unit,
    so a crash keeps all of its sections or none of them. Paper §5's
    server transaction is one record and one force.

    Recovery demultiplexes. Each RM {!attach}es once and receives its own
    checkpoint section and its record sections, oldest first; the RMs'
    states are disjoint, so replaying them one RM at a time is replaying
    the log. One checkpoint covers the whole log: its snapshot holds a
    section per attached RM, taken without a yield, so the sections cut
    the log at one instant. A checkpoint holds only the RMs attached to
    this instance.

    The log is also the unit of primary-backup replication: a primary
    ships its records through {!group_commit}'s shipper, and a standby
    appends them to its own node log and replays each section into the
    RM of its kind ({!standby_apply}), or replaces every RM's state from a
    primary's {!snapshot} ({!standby_install}). *)

type t

type kind = Tm | Qm | Kv  (** One RM of each kind per log. *)

val open_log : Rrq_storage.Disk.t -> name:string -> t
(** Open (or create) the node log called [name], reading back its
    checkpoint and records. Nothing is replayed until RMs {!attach}. The
    WAL underneath is named [name ^ ".log"], which keys its metrics and
    crash sites (["wal.sync:<name>.log"]). *)

val disk : t -> Rrq_storage.Disk.t

type rm = {
  snapshot : Rrq_util.Codec.encoder -> unit;
      (** Encode this RM's checkpoint section, in place. *)
  replay : string -> unit;
      (** Apply one record section shipped from a primary. *)
  install : string option -> unit;
      (** Replace the whole state with a primary's checkpoint section
          ([None]: the primary holds no RM of this kind). *)
}

val attach : t -> kind -> rm -> string option * string list
(** Register the RM of [kind] and hand back what recovery found for it:
    its checkpoint section, if any, and its record sections, oldest first.
    @raise Invalid_argument if an RM of that kind is already attached. *)

(** {1 Commit} *)

type part = {
  kind : kind;
  redo : (Rrq_util.Codec.encoder -> unit) option;
      (** Encode the section to log, in place in the record; [None] if
          nothing of this part needs logging. {!commit} runs it before any
          part's [apply] and without a yield after the parts were built,
          so it logs the values the part held when it was built. *)
  apply : unit -> unit;
      (** Apply the effects in memory. Runs after the append and before
          the force, and must not yield. *)
  durable : unit -> unit;
      (** Runs once the record is durable: lock release. *)
}

val commit : t -> part list -> unit
(** The one commit path of every RM on the node: append one record
    holding every part's section, apply every part, force once, then run
    every [durable]. If no part has a section, nothing is appended or
    forced. This is the {!Rrq_wal.Group_commit} discipline (append, apply
    without yielding, force before acknowledging) in one place. Last, it
    checks the checkpoint rule (see {!checkpoint}). *)

val append : t -> part list -> unit
(** {!commit} without the force: append the record, apply every part and
    run every [durable] at once. The record rides the next force (anyone's
    {!commit} or {!force}), so its loss in a crash must be recoverable:
    the TM's End records, a parallel commit's staged record (which the TM
    forces itself) and its decision record (which recovery re-derives by
    asking the participants), a participant's forgets. Last, it checks the
    checkpoint rule (see {!checkpoint}). *)

val force : t -> unit
(** Make every appended record durable (and, in sync shipping mode,
    shipped). *)

val tail : t -> int
(** The LSN of the last appended record. *)

val durable : t -> int
(** The LSN of the last durable record. *)

val force_upto : t -> int -> unit
(** {!force}, unless the records up to this LSN are already durable (and
    shipped, while a shipper is installed): under load other commits'
    forces usually have covered them. *)

(** {1 Checkpoints}

    A node log cuts itself. {!commit}, {!append} and {!standby_apply}
    check one rule last, with no yield before the checkpoint it takes:
    {!checkpoint} once the live log holds at least
    [max (size of the last checkpoint) 256 KiB], unless recovery found
    sections of a kind whose RM has not attached yet (the snapshot would
    drop them). Under this rule the checkpoint bytes written never exceed
    the log bytes appended plus one snapshot, and the live log never
    holds much more than one snapshot plus one record. *)

val checkpoint : t -> unit
(** Snapshot every attached RM into one checkpoint and truncate the log:
    what the rule above does, and what a caller that wants a cut now
    (a standby's install, a test) calls. *)

val live_log_bytes : t -> int
(** {!Rrq_wal.Wal.live_log_bytes} of the log underneath: what a recovery
    would scan now. *)

(** {1 Replication} *)

val group_commit : t -> Rrq_wal.Group_commit.t
(** The batcher, where a primary installs its shipper
    ({!Rrq_wal.Group_commit.set_shipper}). *)

val quiet : t -> bool
(** Every appended record is durable and no ship round is in flight: no
    committer sits between its append and its ship. A snapshot cut now
    and a shipper installed without a yield miss nothing. *)

val snapshot : t -> string
(** Every attached RM's checkpoint section, as one string: what
    {!standby_install} takes on the peer. *)

val standby_apply : t -> string list -> unit
(** Append records shipped from a primary to this log, replay each
    section into the attached RM of its kind, and force, so the batch is
    durable here before it is acknowledged. A record is the primary's
    whole WAL frame, as its shipper received it
    ({!Rrq_wal.Group_commit.set_shipper}), and is logged here unchanged.
    Last, it checks the checkpoint rule (see {!checkpoint}). *)

val standby_install : t -> string -> unit
(** Replace every attached RM's state with a primary's {!snapshot} and
    restart this log from it (a checkpoint). *)
