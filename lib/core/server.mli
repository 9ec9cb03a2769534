(** The server loop of the System Model (paper §5, fig. 5).

    Each server thread repeats, forever, a single transaction:
    dequeue a request — process it against the site's database — enqueue
    the reply into the client's reply queue — commit. An abort (handler
    failure, deadlock, crash) undoes all three, returning the request to
    its queue for reprocessing; the error-queue machinery bounds how often
    a poisonous request can cycle (§4.2, §5).

    Multiple threads (and multiple sites' servers) dequeuing one queue give
    the paper's load sharing (§1). Replies to clients on other sites are
    enqueued remotely inside the same transaction (two-phase commit). *)

type result =
  | Reply of string  (** Enqueue a reply with this body. *)
  | Reply_env of Envelope.t
      (** Enqueue a fully-controlled reply envelope (intermediate outputs
          of pseudo-conversations set kind and scratch themselves). *)
  | Forward of { dst : string; queue : string; env : Envelope.t }
      (** Enqueue [env] into another queue (possibly on another site)
          instead of replying — the multi-transaction pipeline step of
          fig. 6. *)
  | No_reply  (** The request wants no reply (paper §3 footnote). *)

type handler = Site.t -> Rrq_txn.Tm.txn -> Envelope.t -> result
(** Application logic. Runs inside the request's transaction: database
    access via [Site.kv] with the transaction's id is atomic with the
    dequeue/reply. Raise to abort (the request returns to the queue). *)

type t

val start :
  Site.t -> req_queue:string -> ?threads:int -> ?filter:Rrq_qm.Filter.t ->
  ?name:string -> handler -> t
(** Start [threads] (default 1) server fibers on the site, and re-start
    them automatically whenever the site reboots. *)

val start_set :
  Site.t -> req_queues:string list -> ?threads:int -> ?filter:Rrq_qm.Filter.t ->
  ?name:string -> handler -> t
(** Like {!start} but serving a queue set (paper §9): each iteration takes
    the globally best ready element across all the queues. A stopped
    queue of the set acts as under {!start}; a strict-FIFO one
    serializes only the transactions that take from it
    ({!Rrq_qm.Qm.dequeue_set}). *)

val start_here :
  Site.t -> req_queue:string -> ?threads:int -> ?filter:Rrq_qm.Filter.t ->
  ?name:string -> handler -> t
(** Like {!start} but for the current incarnation only: no boot hook is
    registered, so the threads die with the node and stay dead. Used by
    {!Ha}, whose role protocol decides when a node should serve. *)

val process_one :
  Site.t -> req_queues:string list -> registrant:string ->
  ?filter:Rrq_qm.Filter.t -> wait:Rrq_qm.Qm.wait -> handler ->
  [ `Done | `Empty | `Aborted ]
(** One server transaction (dequeue from the queues, handle, enqueue
    result, commit) — the building block of the loop, exposed for custom
    pools such as {!Autoscale}. *)

val processed : t -> int
(** Requests committed across all threads and incarnations. *)

val aborted : t -> int
(** Transactions aborted (deadlocks, handler failures, refused commits). *)
