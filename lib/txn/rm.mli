(** Resource-manager base: deferred-update transactional state with
    redo-only logging on the node log, two-phase-commit participation and
    checkpointed recovery.

    A resource manager (the KV store) supplies its state type and
    redo-record type; this functor supplies the transactional plumbing:

    - transactions buffer redo records in a private workspace;
    - [stage] hands the workspace to a commit record on the node log
      ({!Node_log.commit}), which the TM shares among every participant
      on that log;
    - [prepare] durably logs the workspace as in-doubt (with its
      coordinator's name) and keeps it, for a coordinator on another
      log; [commit_prepared] and [abort] resolve it, and a commit stays
      remembered until the coordinator reports its decision durable;
    - [prepare_part] and [decide_part] are the same two steps as sections
      of a parallel commit's staged and decision records, for a
      coordinator on this log;
    - recovery replays this RM's sections of the node log over its
      checkpoint section and rebuilds the in-doubt table, invoking
      [relock] so prepared transactions' locks are re-acquired before new
      work starts (paper §5: an aborted/restarted server must find
      requests back in the queue; a prepared dequeue must stay invisible).

    Uncommitted workspaces are volatile by design: a crash aborts them. *)

module type STATE = sig
  type state
  (** In-memory state of the resource manager. *)

  type redo
  (** One logical update; must be re-applicable from its encoding. *)

  val empty : unit -> state
  val encode_redo : Rrq_util.Codec.encoder -> redo -> unit
  val decode_redo : Rrq_util.Codec.decoder -> redo
  val apply : state -> redo -> unit
  (** Apply an update. Must be deterministic; runs both live and in replay. *)

  val snapshot : Rrq_util.Codec.encoder -> state -> unit
  val restore : Rrq_util.Codec.decoder -> state

  val relock : state -> Txid.t -> redo list -> unit
  (** Re-assert whatever volatile exclusions an in-doubt transaction's
      pending updates imply (element locks, key locks). Called once per
      prepared transaction during recovery. *)

  val kind : Node_log.kind
  (** The tag of this RM's sections in the node log. *)
end

module Make (S : STATE) : sig
  type t

  val attach : Node_log.t -> name:string -> t
  (** Attach the RM to a node log, recovering its sections. *)

  val open_rm : Rrq_storage.Disk.t -> name:string -> t
  (** [attach] to a node log of its own named [name]. *)

  val name : t -> string
  val log : t -> Node_log.t
  val state : t -> S.state

  val add_redo : t -> Txid.t -> S.redo -> unit
  (** Buffer an update in the transaction's workspace. *)

  val workspace : t -> Txid.t -> S.redo list
  (** Updates buffered so far (oldest first). *)

  val has_workspace : t -> Txid.t -> bool

  val stage : t -> Txid.t -> Node_log.part
  (** Take the workspace as one part of a commit record: its redo section,
      applied in memory by the record's commit. No section for an empty
      workspace. *)

  val prepare_part : t -> Txid.t -> coordinator:string -> Node_log.part
  (** Take the workspace as the in-doubt section of a parallel commit's
      staged record on this log (no section for an empty workspace). *)

  val prepare : t -> Txid.t -> coordinator:string -> bool
  (** Vote: durably record the workspace as in-doubt and vote yes. The
      coordinator only asks an RM that did work, so a missing workspace (a
      crash or the janitor discarded it) votes no, unless the transaction
      is already prepared here. *)

  val decide_part : t -> Txid.t -> Node_log.part
  (** Commit an in-doubt transaction inside its coordinator's decision
      record on this log. Nothing is remembered: the record is the
      coordinator's own. *)

  val commit_prepared : t -> Txid.t -> unit
  (** Apply an in-doubt transaction, force its commit record and remember
      the txid as committed until {!forget}: the coordinator's decision
      record may not be durable yet, and its recovery asks {!status}.
      Idempotent: unknown transactions are treated as already resolved. *)

  val abort : t -> Txid.t -> unit
  (** Discard the workspace; durably resolve the transaction if it was
      prepared. Idempotent. *)

  val status : t -> Txid.t -> [ `Prepared | `Committed | `Unknown ]
  (** What a recovering coordinator learns about a staged transaction.
      [`Unknown] discards any workspace, so a late prepare votes no. *)

  val forget : t -> Txid.t list -> unit
  (** The coordinators' decision records are durable: drop these txids from
      the committed memory (logged without a force of its own). *)

  val remembered : t -> Txid.t list
  (** The committed memory; its size is the [rm.remembered:<rm>] gauge. *)

  val relock_in_doubt : t -> unit
  (** Re-assert the exclusions of in-doubt transactions ([S.relock]):
      recovery does, a promoted standby must. *)

  val is_prepared : t -> Txid.t -> bool

  val in_doubt : t -> (Txid.t * string) list
  (** Prepared-but-unresolved transactions with their coordinators
      (populated by recovery; the host node runs a resolver over these). *)
end
