(** The recoverable queue manager (paper §4, §10, §11).

    A QM is "a type of database system" storing queue elements, and "a type
    of communication system" decoupling clients from servers. This module
    implements the paper's full queue abstraction:

    - {b Data manipulation} (fig. 3): [enqueue], [dequeue], [read], all
      usable inside transactions (via the node TM) or standalone
      (auto-commit). Dequeue supports priorities, FIFO order, content-based
      filters, blocking with notify semantics (§10), and skip-locked scans
      — concurrent dequeuers are not blocked by uncommitted dequeues, at
      the cost of strict FIFO order (§10). A strict-FIFO queue mode exists
      for comparison.
    - {b Error queues} (§4.2): an element dequeued by [n] successively
      aborting transactions is moved, marked with an abort code, to an
      error queue, preventing cyclic restart of a poisonous request. The
      retry counter is durable. A janitor abort of an idle workspace is
      not a failed delivery: it counts a stale return instead, bounded on
      its own by {!stale_limit}.
    - {b Persistent registration with operation tags} (§4.3): the QM
      durably remembers, per (registrant, queue), the kind/tag/eid of the
      last tagged operation and, for a dequeue, the element it removed —
      updated atomically with the operation itself — and returns them on
      re-registration. This is the paper's mechanism for client
      checkpointing and resynchronization.
    - {b Kill_element} (§7): delete a waiting element; if an uncommitted
      transaction holds it, that transaction is aborted first (via the
      abort callback installed by the hosting node).
    - {b Queue attributes} (§9-§11): stable or volatile durability, retry
      limits, error-queue designation, redirection to another queue, alert
      thresholds, and strict-FIFO mode.
    - {b Triggers} (§6): a deterministic rule that fires when a property
      group in a queue completes (all replies of a fork arrived) and
      replaces the group with new elements — the fork/join join-side.

    The QM's transactional plumbing is {!Rrq_txn.Rm.Make} of its queue
    state, the same participant implementation the KV store uses (§5: the
    QM is one resource manager inside the server's transaction). A stable
    queue is the paper's §10 "queue as main-memory database": element
    payloads and queue order live in memory, only their redo records hit
    the node log, and recovery rebuilds the queue from the checkpoint and
    the redo scan. The queue state's one twist is that updates to volatile
    queues are applied at commit but never logged, so they cost no forced
    writes and vanish on crash. *)

type t

type wait = No_wait | Block | Timeout of float
(** Empty-queue behavior of [dequeue]: return [None] immediately, block
    until an element arrives ("notify lock", §10), or block with a bound. *)

type durability =
  | Stable
      (** Recoverable: every committed update is a redo record in the node
          log, checkpoints snapshot the contents, and recovery replays the
          records over the snapshot. The record is the queue's only stable
          write. *)
  | Volatile  (** Applied at commit, never logged; contents die on crash. *)

type attrs = {
  durability : durability;
  retry_limit : int;
      (** Abort count after which an element moves to the error queue. A
          [Volatile] element moving into a [Stable] error queue is logged
          there in full, so it survives a crash. *)
  error_queue : string option;
      (** Default error queue; [None] means ["<name>.err"]. *)
  redirect_to : string option;
      (** If set, committed enqueues land in this queue instead (§9), and
          are logged or not by the durability of the queue they land in. *)
  alert_threshold : int option;
      (** Depth at which the alert callback fires (§9 / CICS task start). *)
  strict_fifo : bool;
      (** Dequeuers serialize on a queue lock held to commit — the strict
          ordering the paper argues against (§10); kept as a baseline. *)
}

val default_attrs : attrs
(** Stable, retry limit 3, default error queue, no redirect, no alert,
    skip-locked (non-strict). *)

type trigger = {
  on_queue : string;  (** Queue whose arrivals are inspected. *)
  group_prop : string;  (** Property that identifies the group. *)
  complete : Element.t list -> bool;
      (** Whether the group (all current members) is complete. Must be
          deterministic — it re-runs during recovery replay. *)
  make : Element.t list -> (string * string * (string * string) list) list;
      (** Replacement elements: (target queue, payload, props). Must be
          deterministic. *)
}

type last_op = {
  op_kind : [ `Enqueue | `Dequeue ];
  tag : string;
  op_eid : int64;
  element_copy : Element.t option;
      (** For a dequeue, the element it removed, retained after the element
          left the queue (what [Rereceive] reads); [None] for an enqueue,
          whose tag and eid are all that duplicate detection reads. The
          dequeue's log record names the element by eid when its queue is
          [Stable] (the element's own enqueue record holds the body), and
          carries it in full only from a [Volatile] queue; checkpoints
          hold it in full. *)
}

type handle
(** A registrant's binding to one queue. *)

exception No_such_queue of string
exception Not_registered of string

exception Conflict of string
(** A strict-FIFO queue lock deadlocked, timed out or was cancelled: abort
    the surrounding transaction and retry. *)

(** {1 Opening and DDL} *)

val attach : ?triggers:trigger list -> Rrq_txn.Node_log.t -> name:string -> t
(** Attach the repository called [name] to a node log, recovering its
    sections. Triggers are code configuration and must be re-supplied
    identically on every open. *)

val open_qm :
  ?triggers:trigger list ->
  Rrq_storage.Disk.t ->
  name:string ->
  t
(** A standalone repository: [attach] to a node log of its own named
    [name] on [disk]. *)

val name : t -> string
val log : t -> Rrq_txn.Node_log.t

val create_queue : t -> ?attrs:attrs -> string -> unit
(** Durably create a queue (no-op if it exists, so node setup code can be
    re-run after recovery). *)

val alter_queue : t -> string -> attrs -> unit
(** Durably replace a queue's attributes (fig. 3 DDL: "modify a queue") —
    retry limit, error queue, redirection, alert threshold, strict mode.
    The durability class cannot change ([Invalid_argument]): stable
    contents cannot be retroactively declared volatile or vice versa.
    @raise No_such_queue *)

val destroy_queue : t -> string -> unit
(** Durably destroy a queue and its contents (fig. 3 DDL). Registrations on
    the queue are destroyed with it.
    @raise No_such_queue *)

val stop_queue : t -> string -> unit
(** Durably stop a queue (fig. 3 DDL): enqueues and dequeues raise
    {!Stopped} until {!start_queue}; existing elements are retained.
    Already-buffered transactional operations still commit. *)

val start_queue : t -> string -> unit

val queue_stopped : t -> string -> bool

exception Stopped of string
(** Operation attempted on a stopped queue. *)

val queue_exists : t -> string -> bool
val queue_names : t -> string list
val depth : t -> string -> int
(** Number of elements present (ready or pending-dequeue).
    @raise No_such_queue *)

(** {1 Registration (fig. 3, §4.3)} *)

val register :
  t -> queue:string -> registrant:string -> stable:bool ->
  handle * last_op option
(** Durably associate [registrant] with the queue and return the last
    tagged operation if this registrant was already registered (recovery
    path). With [stable:false] no last-op info is maintained. *)

val deregister : t -> handle -> unit
(** Durably destroy the registration and its saved state. *)

val lookup_registration :
  t -> queue:string -> registrant:string -> last_op option
(** Read-only probe of a stable registration's last tagged operation:
    nothing is created, nothing is logged. [None] when the registrant is
    unknown here (or registered [stable:false]). This is what a shard
    repository answers a peer's registration pull with — the
    duplicate-suppression evidence for a retried operation that crossed a
    shard-map change. *)

val handle_queue : handle -> string
val handle_registrant : handle -> string

(** {1 Data manipulation (fig. 3)}

    Operations taking a {!Rrq_txn.Txid.t} join that transaction's workspace;
    the effects become visible at commit via {!participant}. *)

val enqueue :
  t -> Rrq_txn.Txid.t -> handle -> ?tag:string ->
  ?props:(string * string) list -> ?priority:int -> string -> int64
(** Buffer an enqueue of a payload; returns the new element's eid. [tag]
    atomically updates the registration's last-op record (stable
    registrants only). *)

val dequeue :
  t -> Rrq_txn.Txid.t -> handle -> ?tag:string -> ?filter:Filter.t ->
  ?rank:(Element.t -> float) -> ?error_queue:string -> wait ->
  Element.t option
(** Remove the best ready element matching the filter: by default in queue
    order (priority desc, then FIFO); with [rank], the ready match with the
    highest rank (content-based scheduling, §11 — "highest dollar amount
    first"). The element is immediately invisible to other dequeuers; it
    returns (with its retry count bumped, durably) if the transaction
    aborts, or with its stale count bumped if {!abort_stale} aborts it.
    [error_queue] overrides the queue's attribute for this call. A blocked
    dequeuer is woken whenever an element it matches becomes ready,
    whatever other dequeuers, filtering or not, wait on the queue. *)

val dequeue_set :
  t -> Rrq_txn.Txid.t -> handle list -> ?tag:string -> ?filter:Filter.t ->
  wait -> (handle * Element.t) option
(** Dequeue the globally best element across several queues (queue sets,
    §9); {!dequeue} is the set of one. Every queue of the set gets
    {!dequeue}'s stop check: a stopped one raises {!Stopped}. A
    strict-FIFO queue alone is locked before any element is chosen; in a
    larger set only the strict queue the dequeue takes from is locked,
    once its head is the best match, so a strict queue does not
    serialize dequeues that take from the set's other queues; from then
    on the dequeue takes (or waits) from that queue alone, whose head may
    have moved while the lock was waited for, and so holds one strict
    lock at most. The tag update, if any, applies to the handle that
    won. *)

val read : t -> int64 -> Element.t option
(** Read an element's contents by eid without modifying it. Elements locked
    by uncommitted dequeues are readable (§10); uncommitted enqueues are
    not visible. *)

val read_last : t -> handle -> Element.t option
(** The element the registration's last tagged dequeue removed (Rereceive
    support), still available after that dequeue committed. [None] when
    the last tagged operation was an enqueue, or there was none. *)

val observe_queues : t -> unit
(** Refresh the [Rrq_obs] per-queue depth and head-of-line-age gauges.
    No-op when observability is disabled. Depth gauges also track every
    insert/remove; age only moves when this is called, so periodic callers
    (the site janitor) keep it current. *)

val kill_element : t -> int64 -> bool
(** Cancel support (§7): durably delete the element. If an uncommitted
    transaction dequeued it, that transaction is aborted through the abort
    callback first. Returns whether the element was deleted. *)

val kill_where : t -> Filter.t -> int
(** Kill every element (in any queue of the repository) matching the
    filter; returns how many were deleted. Elements keep their identifying
    properties as they move between queues (§11's element-identity
    discussion), so a request can be cancelled by its rid/client
    properties wherever forwarding or pipelining has taken it. *)

(** {1 Transaction integration} *)

val participant : t -> Rrq_txn.Tm.participant
(** Enlist the QM in a transaction. *)

val commit : t -> Rrq_txn.Txid.t -> unit
(** Commit the transaction's operations with this QM alone: one record,
    one force. What {!Rrq_txn.Tm.commit} does when the QM is the only
    participant, for callers without a TM. *)

val auto_commit : t -> (Rrq_txn.Txid.t -> 'a) -> 'a
(** Run one or more QM operations as a standalone atomic action: effects
    are durable and visible when the call returns (the paper's
    outside-a-transaction mode, visible "before the operation returns").
    Uses an internal transaction id. *)

val auto_commit_lazy : t -> (Rrq_txn.Txid.t -> 'a) -> 'a
(** {!auto_commit} whose own record is not waited for
    ({!Rrq_txn.Rm.Make.commit_lazy}): the effects are visible at once,
    and everything logged before them is durable (and shipped) when the
    call returns, but the record rides the next force of the log. A
    crash before that undoes the operations, so a dequeue's element comes
    back. The paper's Receive needs only at-least-once reply processing
    (§3): the site's Receive path dequeues this way, and the clerk
    fences it before its next Send or Disconnect is acknowledged
    ({!Rrq_core.Clerk}). Its locks go at the append, which is safe for a
    dequeue from a client's own reply queue: only its registrant
    dequeues there, one Receive at a time, so no other transaction waits
    on those locks or could take an element after the one given back. *)

val abort_stale : t -> older_than:float -> int
(** Unilaterally abort active (unprepared) workspaces idle longer than the
    bound — the QM-side timeout that frees elements locked by a dequeuer
    whose node died or who waits on one (prepared transactions are never
    touched). The owner hears first, through the abort callback. A stalled
    owner is no failed delivery: a returned element keeps its retry count
    and bumps its stale count instead. Returns how many were aborted. *)

val stale_limit : int
(** Stale returns after which an element moves to the error queue (abort
    code ["stalled <n> times"]), so a request whose owner stalls forever
    still leaves the loop. Far above any retry limit. *)

(** {1 Callbacks installed by the hosting node} *)

val in_doubt : t -> (Rrq_txn.Txid.t * string) list
(** Prepared-but-unresolved transactions and their coordinators, for the
    hosting node's resolver daemon. *)

val remembered : t -> Rrq_txn.Txid.t list
(** Transactions this QM committed for a remote coordinator that has not
    yet reported its decision record durable (the [rm.remembered:<qm>]
    gauge): the hosting node asks about ones it keeps too long. *)

val relock_in_doubt : t -> unit
(** Re-assert the exclusions of in-doubt transactions (their dequeued
    elements stay invisible). Recovery does this; a standby, whose replay
    skips it, must do it when promoted. *)

val incarnation : t -> int
(** The durable incarnation, bumped at every attach and promotion. A
    remote transactional operation reports it, and the prepare carries it
    back: a different number means the buffered work may be lost. *)

val set_abort_callback : t -> (Rrq_txn.Txid.t -> unit) -> unit
(** How [kill_element] aborts the transaction holding an element (normally
    the node TM's force-abort). *)

val set_alert_callback : t -> (string -> int -> unit) -> unit
(** Fired when a queue's depth reaches its alert threshold (queue name,
    depth). *)

val set_clock : t -> (unit -> float) -> unit
(** Source of enqueue timestamps and staleness decisions; the hosting node
    wires this to the simulator clock. Defaults to an internal sequence
    that still yields correct FIFO ordering. *)

(** {1 Maintenance and introspection} *)

val checkpoint : t -> unit
(** Checkpoint the QM's node log (every RM attached to it). *)

val live_log_bytes : t -> int

val counts : t -> string -> int * int
(** (total committed enqueues, total committed dequeues) for a queue in
    this incarnation. *)

val elements : t -> string -> Element.t list
(** Snapshot of a queue's current elements in dequeue order (tests and
    audits). *)

(** {1 Replication hook}

    A standby's QM follows its primary through its node log
    ({!Rrq_txn.Node_log.standby_apply}, {!Rrq_txn.Node_log.standby_install}). *)

val bump_incarnation : t -> unit
(** Durably open a fresh incarnation without reopening the repository —
    called at promotion so a new primary never mints eids or auto-txids
    that collide with the old primary's. *)
