(** The invariant/auditor registry: one place defining what "correct" means
    for an explored schedule, unifying the exactly-once ledger, conservation
    and queue-integrity checks that were previously scattered through the
    experiment harness. Every explored schedule and crash sweep is
    audited through the same registry. *)

(** {1 The exactly-once execution ledger} *)

val counting_handler : Rrq_core.Server.handler
(** Increments ["exec:" ^ rid] and ["total"], replies ["done:" ^ body] —
    the standard exactly-once audit handler. *)

val exec_count : Rrq_core.Site.t -> string -> int
(** Committed value of ["exec:" ^ rid] (0 when absent). *)

val audit_executions :
  Rrq_core.Site.t list -> rids:string list -> int * int * int
(** [(lost, exactly_once, duplicated)] across the given sites: for each
    rid, sums its exec counters over all sites and classifies. *)

(** {1 Auditors} *)

type auditor
(** A named invariant over a quiesced world. *)

type finding = { auditor : string; detail : string }
(** One violated invariant. *)

val make : string -> (unit -> string option) -> auditor
(** [make name check]: [check] returns [None] when the invariant holds, or
    [Some detail] describing the violation. A check that raises is reported
    as a finding, not an exception. *)

val run : auditor list -> finding list
(** Evaluate every auditor; empty means the schedule passed. *)

val findings_to_string : finding list -> string

(** {1 Standard auditors}

    Sites and rids are passed as thunks because auditors run after faults:
    accessors must see the current incarnation, not a pre-crash snapshot. *)

val exactly_once :
  sites:(unit -> Rrq_core.Site.t list) -> rids:(unit -> string list) -> auditor
(** Zero lost and zero duplicated executions over the ledger (paper §3,
    Exactly-Once Request-Processing). *)

val conservation : name:string -> expected:int -> actual:(unit -> int) -> auditor
(** A conserved integer quantity (e.g. total money across accounts). *)

val queue_integrity : sites:(unit -> Rrq_core.Site.t list) -> auditor
(** Structural invariants of every queue on every site: unique element ids
    and non-negative delivery counts. (Committed enqueue/dequeue counters
    are per-incarnation, so they are deliberately not compared here.) *)

val reply_delivery :
  sites:(unit -> Rrq_core.Site.t list) ->
  received:(string -> int) ->
  rids:(unit -> string list) ->
  auditor
(** Exactly one reply per request, counting consumed replies ([received
    rid]) plus copies still queued in [reply.*] queues on the given sites,
    matched by their [rid] property: the rule of a run without crashes,
    where no Receive is undone ({!replies_seen} is the rule under
    crashes). Pass only the authoritative repository of an HA pair — the
    standby holds replicated copies by design. *)

val replies_seen :
  sites:(unit -> Rrq_core.Site.t list) ->
  seen:(string -> int64 list) ->
  crashes:(string -> int) ->
  rids:(unit -> string list) ->
  auditor
(** {!reply_delivery} for at-least-once reply processing (paper §3),
    also named ["reply-delivery"]: the eids of the replies the client
    consumed ([seen rid], one per copy) and of the copies still queued
    must name exactly one reply. That reply may be seen once more per
    crash in [crashes rid]: the crashes of the nodes holding the rid's
    reply queue that fell between a Receive of that reply and its fence
    (the client's next Send or Disconnect), and so may have undone the
    lazy Receive. Catches
    duplicate replies released by a speculative (lagged-shipping) primary
    that died before shipping, and a Receive undone after its fence. *)

val no_in_doubt : sites:(unit -> Rrq_core.Site.t list) -> auditor
(** After quiescence with all sites up, no prepared transaction may remain
    unresolved (the resolver daemons must have settled 2PC in-doubts). *)

val exactly_once_trace : unit -> auditor
(** Exactly-once verified from the [Rrq_obs] trace stream alone: every
    request appearing in a [Clerk_send] event has a [Server_exec], and
    every (request, queue) pair of a [Server_exec] has exactly one whose
    txid also appears in a [Txn_commit] — each stage of a
    multi-transaction request runs once from its own queue. Requires
    an enabled observability session whose ring never wrapped. Sound only
    on runs where no fiber can die between its durable force and its
    commit event: runs without crashes. A crash can kill a group-commit
    follower parked for its leader's wake-up, or a committer in the
    Sync-mode HA ship wait, after its commit became durable but before the
    event (see the implementation note). Not part of the standard auditor
    set — {!Scenario.run_recorded} applies it to crash-free plans. *)
