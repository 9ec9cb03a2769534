(** Unbounded FIFO channels between fibers.

    [send] never blocks. [recv] blocks until a value is available. A value
    handed to a waiter whose fiber has died is re-offered to the next waiter
    (or queued), so crashes of receivers do not silently eat messages that
    were never delivered to them. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Deliver to the oldest live waiter, or queue the value. *)

val recv : 'a t -> 'a
(** Block until a value arrives (FIFO among waiters). *)

val recv_timeout : 'a t -> float -> 'a option
(** Like [recv] but gives up after the virtual duration, returning [None];
    the waiter then leaves the queue at once. *)

val length : 'a t -> int
(** Number of queued (undelivered) values. *)

val clear : 'a t -> unit
(** Drop all queued values (used when a node's volatile state is lost). *)
