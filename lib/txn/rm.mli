(** Resource-manager base: deferred-update transactional state with
    redo-only logging on the node log, two-phase-commit participation and
    checkpointed recovery. It is the one implementation of the participant
    protocol: the KV store and the queue manager are each [Make] of their
    state.

    A resource manager supplies its state type, its redo-record type and a
    few hooks; this functor supplies the transactional plumbing:

    - transactions buffer redo records in a private workspace;
    - a commit hands the workspace to a commit record on the node log
      ({!Node_log.commit}), which the TM shares among every participant
      on that log; the transaction's locks go once the record is durable;
    - a participant's prepare durably logs the workspace as in-doubt (with
      its coordinator's name) and keeps it, for a coordinator on another
      log; its commit and abort resolve it, and a commit stays remembered
      until the coordinator reports its decision durable; for a
      coordinator on this log the same two steps are sections of a
      parallel commit's staged and decision records;
    - an abort logs the state's fixups of what the transaction held (a
      queue manager's returned elements) in the same record as the abort;
    - recovery replays this RM's sections of the node log over its
      checkpoint section and rebuilds the in-doubt table, invoking
      [relock] so prepared transactions' locks are re-acquired before new
      work starts (paper §5: an aborted/restarted server must find
      requests back in the queue; a prepared dequeue must stay invisible).

    Uncommitted workspaces are volatile by design: a crash aborts them. *)

module type STATE = sig
  type state
  (** In-memory state of the resource manager, created by its owner and
      kept for the RM's lifetime: recovery and a standby's install restore
      its contents in place. *)

  type redo
  (** One logical update; must be re-applicable from its encoding. *)

  val kind : Node_log.kind
  (** The tag of this RM's sections in the node log. *)

  val encode_redo : Rrq_util.Codec.encoder -> redo -> unit
  val decode_redo : Rrq_util.Codec.decoder -> redo

  val apply : state -> live:bool -> redo -> unit
  (** Apply an update. Must be deterministic. [live] is [false] in
      recovery and in a standby's replay, where counters, alerts and other
      effects outside the state must not fire again. *)

  val logged : state -> redo -> bool
  (** Whether an update is logged; one that is not is applied at commit
      and lost in a crash (a volatile queue's). Asked before apply. *)

  val abort_fixups : state -> stale:bool -> redo list -> redo list
  (** The updates of an aborting transaction (its workspace, or its
      in-doubt updates) to the updates that durably undo what it held
      outside its workspace, logged and applied in the abort's record.
      [stale] when the janitor aborts an idle workspace ([mark_stale]). *)

  val snapshot : Rrq_util.Codec.encoder -> state -> unit

  val restore : state -> Rrq_util.Codec.decoder option -> unit
  (** Replace the contents with a snapshot's ([None]: empty). *)

  val relock : state -> Txid.t -> redo list -> unit
  (** Re-assert whatever volatile exclusions an in-doubt transaction's
      pending updates imply (element locks, key locks). Called once per
      prepared transaction during recovery. *)

  val locks : state -> Lock.t
  (** The lock table whose locks a transaction releases once its outcome
      is durable. *)

  val clock : state -> float
  (** The time workspace activity is stamped with. *)
end

module Make (S : STATE) : sig
  type t

  val attach : Node_log.t -> name:string -> S.state -> t
  (** Attach the RM to a node log with a fresh state, recovering its
      sections into it. *)

  val name : t -> string
  val log : t -> Node_log.t
  val state : t -> S.state

  val add_redo : t -> Txid.t -> S.redo -> unit
  (** Buffer an update in the transaction's workspace and stamp its
      activity. *)

  val workspace : t -> Txid.t -> S.redo list
  (** Updates buffered so far (oldest first). *)

  val has_workspace : t -> Txid.t -> bool

  val commit : t -> Txid.t -> unit
  (** Commit the workspace with this RM alone: one record, one force. *)

  val commit_lazy : t -> Txid.t -> unit
  (** {!commit} that does not wait for its own record: append it
      ({!Node_log.append}), apply it, release the locks at once, then
      wait only until the log is durable (and, in sync shipping mode,
      shipped) up to the record before it ({!Node_log.force_upto}), so
      every effect the workspace read was durable before the call
      returns. The record itself rides the next force, and a crash before
      that loses it. Only for a workspace whose loss is a redelivery its
      owner can absorb, and whose locks no one else waits on: a client's
      Receive from its own reply queue ({!Rrq_qm.Qm.auto_commit_lazy}). *)

  val commit_now : t -> S.redo list -> unit
  (** Log and apply updates that belong to no transaction (DDL,
      maintenance): one record, one force. *)

  val abort : t -> Txid.t -> unit
  (** Discard the workspace, durably resolve the transaction if it was
      prepared, log the state's fixups in the same record and release the
      locks. Idempotent. *)

  val mark_stale : t -> older_than:float -> Txid.t list
  (** The workspaces idle longer than the bound, marked so that their
      abort, by whichever path it comes, is a stale one. *)

  val participant : t -> Tm.participant
  (** Enlist this RM in a transaction. Answering [`Unknown] to a status
      question aborts the transaction here, so a late prepare votes no. *)

  val remembered : t -> Txid.t list
  (** Transactions committed for a remote coordinator whose decision record
      may not be durable yet; the size is the [rm.remembered:<rm>]
      gauge. *)

  val relock_in_doubt : t -> unit
  (** Re-assert the exclusions of in-doubt transactions ([S.relock]):
      recovery does, a promoted standby must. *)

  val in_doubt : t -> (Txid.t * string) list
  (** Prepared-but-unresolved transactions with their coordinators
      (populated by recovery; the host node runs a resolver over these). *)
end
