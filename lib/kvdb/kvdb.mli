(** Recoverable key-value store — the "shared updatable database" that
    back-end servers read and write while processing requests (paper §2).

    Strict two-phase locking per key (shared for reads, exclusive for
    writes), redo-only logging on the node log via {!Rrq_txn.Rm}, and
    participation in the node TM's commit: a section of its one commit
    record, or two-phase commit for a coordinator on another log.
    Transactions see their own buffered writes. Locks are released by the
    commit/abort paths of {!participant}. *)

type t

val attach : Rrq_txn.Node_log.t -> name:string -> t
(** Attach the store named [name] to a node log, recovering its
    sections. *)

val open_kv : Rrq_storage.Disk.t -> name:string -> t
(** [attach] to a node log of its own named [name]. *)

val name : t -> string

exception Conflict of string
(** Raised when a lock request deadlocks or is cancelled: the caller must
    abort the surrounding transaction and may retry it. *)

val get : t -> Rrq_txn.Txid.t -> string -> string option
(** Read a key under a shared lock; sees the transaction's own writes. *)

val put : t -> Rrq_txn.Txid.t -> string -> string -> unit
(** Buffer a write under an exclusive lock. *)

val delete : t -> Rrq_txn.Txid.t -> string -> unit

val get_int : t -> Rrq_txn.Txid.t -> string -> int
(** [get] parsed as an integer; missing or malformed keys read as 0. *)

val add : t -> Rrq_txn.Txid.t -> string -> int -> int
(** Read-modify-write: add a delta to an integer key, returning the new
    value. *)

val participant : t -> Rrq_txn.Tm.participant
(** Enlist this store in a transaction. All lock release goes through the
    returned closures. *)

val commit : t -> Rrq_txn.Txid.t -> unit
(** Commit the transaction's writes with this store alone: one record,
    one force, then release its locks. What {!Rrq_txn.Tm.commit} does
    when this store is the only participant, for callers without a TM. *)

val transfer_locks : t -> from:Rrq_txn.Txid.t -> to_:Rrq_txn.Txid.t -> unit
(** Move every lock of one transaction to another without releasing: the
    lock-inheritance technique that makes a chain of transactions
    serializable as one request (paper §6). Inherited locks are volatile —
    a crash releases them, as the paper's discussion concedes. *)

val release_locks : t -> Rrq_txn.Txid.t -> unit
(** Release a transaction's locks without logging (used by abort paths that
    never touched durable state). Normally called via {!participant}. *)

val in_doubt : t -> (Rrq_txn.Txid.t * string) list
(** Prepared-but-unresolved transactions with their coordinator names; the
    hosting node's resolver daemon polls the coordinators for these. *)

val relock_in_doubt : t -> unit
(** Re-take the locks of in-doubt transactions: a promoted standby's
    replay did not. *)

val remembered : t -> Rrq_txn.Txid.t list
(** Transactions committed for a remote coordinator that has not yet
    reported its decision record durable. *)

val committed_value : t -> string -> string option
(** Read the committed state directly, without locks or a transaction —
    for audits and tests, not for servers. *)

val committed_bindings : t -> (string * string) list
(** All committed key/value pairs, sorted by key (audit helper). *)

val checkpoint : t -> unit
(** Checkpoint the store's node log (every RM attached to it). *)
