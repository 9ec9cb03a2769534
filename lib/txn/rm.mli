(** Resource-manager base: deferred-update transactional state with
    redo-only logging, two-phase-commit participation and checkpointed
    recovery.

    A resource manager (the queue manager, the KV store) supplies its state
    type and redo-record type; this functor supplies the transactional
    plumbing:

    - transactions buffer redo records in a private workspace;
    - [commit_one_phase] durably logs the workspace then applies it;
    - [prepare] durably logs the workspace as in-doubt (with its
      coordinator's name) and keeps it; [commit_prepared] (lazily logged)
      and [abort] resolve it;
    - recovery replays the log over the latest checkpoint snapshot and
      rebuilds the in-doubt table, invoking [relock] so prepared
      transactions' locks are re-acquired before new work starts
      (paper §5: an aborted/restarted server must find requests back in the
      queue; a prepared dequeue must stay invisible).

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
end

module Make (S : STATE) : sig
  type t

  val open_rm : Rrq_storage.Disk.t -> name:string -> t
  (** Open the RM, running recovery against its WAL. Commit-point log
      forces go through {!Rrq_wal.Group_commit}. *)

  val name : t -> string
  val state : t -> S.state

  val add_redo : t -> Txid.t -> S.redo -> unit
  (** Buffer an update in the transaction's workspace. *)

  val workspace : t -> Txid.t -> S.redo list
  (** Updates buffered so far (oldest first). *)

  val has_workspace : t -> Txid.t -> bool

  val commit_one_phase : t -> Txid.t -> unit
  (** Log-force the workspace and apply it. Used when this RM is the only
      participant. No-op for an empty workspace. *)

  val prepare : t -> Txid.t -> coordinator:string -> bool
  (** Vote yes: durably record the workspace as in-doubt. Always votes yes
      unless the transaction has no workspace here (then trivially yes with
      nothing recorded — a read-only participant). *)

  val commit_prepared : t -> Txid.t -> on_durable:(unit -> unit) -> unit
  (** Apply an in-doubt transaction and append its commit record without
      forcing it ({!Rrq_wal.Group_commit}'s lazy commit record): the
      coordinator's durable decision already fixes the outcome. Runs
      [on_durable] once the record is durable. Idempotent: unknown
      transactions are treated as already resolved. *)

  val abort : t -> Txid.t -> unit
  (** Discard the workspace; durably resolve the transaction if it was
      prepared. Idempotent. *)

  val is_prepared : t -> Txid.t -> bool

  val in_doubt : t -> (Txid.t * string) list
  (** Prepared-but-unresolved transactions with their coordinators
      (populated by recovery; the host node runs a resolver over these). *)

  val apply_now : t -> S.redo list -> unit
  (** Durably log and apply updates outside any transaction (auto-commit),
      e.g. the retry-counter bump on an aborted dequeue. *)

  val force_log : t -> unit
  (** Make every appended record durable (lazy commit records included). *)

  val group_commit : t -> Rrq_wal.Group_commit.t
  (** The commit-point batcher, exposed so a replication layer can install
      a WAL shipper on it ({!Rrq_wal.Group_commit.set_shipper}). *)

  (** {1 Warm-standby replication target}

      The backup half of primary-backup WAL shipping: shipped records are
      appended verbatim into this RM's own log (a backup crash recovers
      through the native path) and replayed into memory immediately, so
      the standby is warm by construction. A standby runs no competing
      transactions; in-doubt entries accumulated from shipped prepares are
      resolved by the promotion protocol, not here. *)

  val standby_apply : t -> string -> unit
  (** Append one shipped record to our own log and replay it into memory.
      Not forced — call {!force_log} at batch end, before acknowledging
      the batch to the primary. *)

  val standby_install : t -> string -> unit
  (** Replace the whole state from a primary {!encode_snapshot} image
      (full resync after a gap or a role change) and restart our log from
      it. *)

  val encode_snapshot : t -> string
  (** The state + in-doubt table as one string — what {!standby_install}
      consumes on the peer. *)

  val checkpoint : t -> unit
  (** Snapshot state + in-doubt table; truncate the log. *)

  val maybe_checkpoint : t -> every:int -> unit
  (** Checkpoint when at least [every] records accumulated since the last
      one. *)

  val records_since_checkpoint : t -> int
  val live_log_bytes : t -> int
end
