(** Store-and-forward between queues on different sites (paper §2).

    "If a client enqueues its requests to a local queue, and periodically
    moves its local requests to the remote input queue of a server process,
    then the server appears to provide a reliable service to the client
    even if the client and server nodes are frequently partitioned."

    The forwarder is a daemon that repeatedly moves one element from a
    local queue to a remote queue inside a single transaction (local
    dequeue + remote enqueue, two-phase commit): an element is never lost
    and never duplicated, and during a partition it simply stays queued
    locally. Clients point their clerk at the local site; replies flow
    back through the reverse path the server uses (its transactional
    remote enqueue). *)

val start :
  Site.t -> local_queue:string -> dst:string -> remote_queue:string -> unit
(** Start (and restart with the site) a forwarder daemon. When the remote
    site is unreachable the daemon backs off for 1.0 s and tries again. *)

val forwarded : Site.t -> local_queue:string -> int
(** Elements moved out of the local queue so far (committed dequeues). *)
