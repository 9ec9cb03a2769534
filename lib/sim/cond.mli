(** Condition variables for fibers.

    Standard wait/signal/broadcast, used for the QM's blocking dequeue
    ("notify locks", paper §10) and the lock manager's wait queues.

    There is no associated mutex: fibers are cooperative, so the check of
    the guarded predicate and the call to [wait] cannot be interleaved with
    another fiber. As with any condition variable, waiters must re-check
    their predicate in a loop. *)

type t

val create : unit -> t

val wait : t -> unit
(** Block until signalled. *)

val wait_timeout : t -> float -> bool
(** Block until signalled ([true]) or until the duration elapses
    ([false]); a waiter that times out leaves the queue at once. *)

val wait_any : ?timeout:float -> t list -> bool
(** Block until any of the conditions is signalled ([true]) or the optional
    timeout elapses ([false]), leaving every queue in the latter case. Used
    to wait on several queues at once (queue sets); on one condition it is
    {!wait} or {!wait_timeout}. *)

val signal : t -> unit
(** Wake one live waiter, if any. *)

val broadcast : t -> unit
(** Wake all current waiters. *)

val waiters : t -> int
(** Number of fibers currently able to be woken. *)
