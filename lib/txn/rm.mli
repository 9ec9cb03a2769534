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
      log; [commit_prepared] and [abort] resolve it;
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

  val prepare : t -> Txid.t -> coordinator:string -> bool
  (** Vote yes: durably record the workspace as in-doubt. Always votes yes
      unless the transaction has no workspace here (then trivially yes with
      nothing recorded — a read-only participant). *)

  val commit_prepared : t -> Txid.t -> unit
  (** Apply an in-doubt transaction and force its commit record.
      Idempotent: unknown transactions are treated as already
      resolved. *)

  val abort : t -> Txid.t -> unit
  (** Discard the workspace; durably resolve the transaction if it was
      prepared. Idempotent. *)

  val is_prepared : t -> Txid.t -> bool

  val in_doubt : t -> (Txid.t * string) list
  (** Prepared-but-unresolved transactions with their coordinators
      (populated by recovery; the host node runs a resolver over these). *)
end
