(** Two-phase-locking lock manager with deadlock detection.

    Locks are named by strings (the KV store uses one per key; the QM uses
    one per queue in strict-FIFO mode). Shared ([S]) locks are compatible
    with each other; exclusive ([X]) locks conflict with everything held by
    other transactions. Requests are granted FIFO-fairly: a new request
    queues behind incompatible earlier waiters, except re-entrant requests
    and upgrades.

    Deadlocks are detected at block time by a cycle search over the dynamic
    waits-for graph; the requester is the victim and receives {!Deadlock}.
    A transaction aborted from the outside while one of its fibers is
    blocked here is woken with {!Cancelled} (used by request cancellation,
    paper §7).

    [transfer] reassigns every lock of one transaction to another without
    releasing — the lock-inheritance technique of paper §6 that makes a
    chain of transactions serializable as one request. *)

type mode = S | X

exception Deadlock of string
(** The request would close a waits-for cycle; the requester should abort. *)

exception Cancelled
(** The waiting transaction was aborted by a third party. *)

type t

val create : ?name:string -> unit -> t
(** [name] (default ["lock"]) is the instance class the lock-order
    witness reports under: every fresh grant and every release-all is
    mirrored into [Rrq_obs.Lock_order] when observability is on (and
    costs one boolean test when it is off). rrq_lint derives the same
    class names statically, so observed order edges can be checked for
    containment in the static lock-order graph. *)

val acquire : ?timeout:float -> t -> Txid.t -> key:string -> mode -> unit
(** Block until granted. Re-entrant; upgrades S to X when permissible.
    @raise Deadlock if granting would deadlock.
    @raise Cancelled if {!cancel_waits} removes the request.
    @raise Deadlock (as timeout surrogate) if [timeout] expires first. *)

val try_acquire : t -> Txid.t -> key:string -> mode -> bool
(** Non-blocking attempt. *)

val holds : t -> Txid.t -> key:string -> mode -> bool
(** Whether the transaction already holds the key in a mode at least as
    strong. *)

val release_all : t -> Txid.t -> unit
(** Release every lock held, in the reverse of the order its keys were
    first granted, and cancel every wait of the transaction, waking newly
    grantable waiters. Called at commit and abort. *)

val cancel_waits : t -> Txid.t -> unit
(** Wake all pending [acquire]s of the transaction with {!Cancelled},
    without touching locks it already holds. *)

val transfer : t -> from:Txid.t -> to_:Txid.t -> unit
(** Move all locks held by [from] to [to_] (merging modes). *)

val locked : t -> key:string -> bool
(** Whether anyone holds the key (test/diagnostic helper). *)

val entries : t -> int
(** Keys with a holder or a waiter: the size of the lock table
    (test/diagnostic helper). *)
