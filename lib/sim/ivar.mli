(** Write-once synchronization cells (futures).

    Used for RPC replies: the caller blocks on [read], the transport fills
    the cell when (if) the response message arrives. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Set the value and wake all readers. Subsequent fills are ignored (a
    duplicated response message must not crash the caller). *)

val read : 'a t -> 'a
(** Block until filled. *)

val read_timeout : 'a t -> float -> 'a option
(** Block until filled or the virtual duration elapses. *)
