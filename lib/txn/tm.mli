(** Transaction manager: transaction lifecycle and atomic commitment.

    Each node runs one TM, sharing the node's log ({!Node_log}) with the
    node's resource managers. A transaction collects {e participants}
    (resource managers, local or remote proxies). Commit uses:

    - nothing at all for read-only transactions;
    - one record and one force when every participant that did work
      writes the TM's own node log: each contributes its redo section to
      the record ({!Node_log.commit}), with no prepare, decision or End
      record. Paper §5's server transaction (dequeue the request, update
      the database, enqueue the reply) is this case;
    - presumed-abort two-phase commit for the participants on other logs
      (another node's RMs through the ["rm"] service, or an RM with a log
      of its own): they prepare, and once all vote yes the TM writes the
      local participants' redo and the commit decision as that one
      record. A crash before it is durable aborts the transaction
      implicitly, and in-doubt participants that cannot find a logged
      decision are told to abort.

    The coordinator log also drives {e commit redelivery}: once a commit
    decision is logged, delivery to every remote participant is retried
    (across coordinator restarts, via {!set_resolver} +
    {!recover_pending}) until all have acknowledged it. A participant
    acknowledges only once its commit record is durable; an End record
    then retires the transaction. *)

type t

type outcome = Committed | Aborted

type participant = {
  part_name : string;  (** Stable name, resolvable after a restart. *)
  p_local : (Node_log.t * (Txid.t -> Node_log.part)) option;
      (** The node log this RM writes and how it hands its workspace to a
          commit record there ({!Node_log.part}); [None] for a proxy of an
          RM on another node. A participant on the coordinator's log joins
          the coordinator's one commit record. *)
  p_prepare : Txid.t -> coordinator:string -> bool;
      (** Force a yes-vote; [false] for a no-vote or an unreachable RM. *)
  p_commit : Txid.t -> bool;
      (** Deliver the commit decision; [true] once the commit record is
          durable at the participant, [false] to have it redelivered. *)
  p_abort : Txid.t -> unit;  (** Best-effort abort notice. *)
  p_has_work : Txid.t -> bool;
      (** Whether the RM buffered any update for this transaction. Workless
          participants are excused from commitment with an abort notice
          (which only releases their read locks), so a transaction that
          wrote at one RM and only read at others involves only the
          first. *)
}

type txn
(** An open transaction handle. *)

val attach : Node_log.t -> name:string -> t
(** Attach the TM named [name] (the coordinator identity participants will
    query) to a node log, recovering its incarnation and unretired
    decisions and durably bumping its incarnation, so txids never repeat
    across crashes and checkpoints. *)

val open_tm : Rrq_storage.Disk.t -> name:string -> t
(** [attach] to a node log of its own named [name]. *)

val name : t -> string

val begin_txn : t -> txn
val txn_id : txn -> Txid.t

val join : txn -> participant -> unit
(** Enlist a participant (deduplicated by [part_name]). *)

val on_commit : txn -> (unit -> unit) -> unit
(** Hook run once, just after the transaction commits. *)

val on_abort : txn -> (unit -> unit) -> unit
(** Hook run once, just after the transaction aborts. *)

val commit : t -> txn -> outcome
(** Run the commitment protocol. Returns [Aborted] if any participant voted
    no or was unreachable during voting. Must be called from a fiber. *)

val abort : t -> txn -> unit
(** Abort an active transaction. Idempotent. *)

val force_abort : t -> Txid.t -> bool
(** Abort a live transaction by id, from outside its owning fiber — the
    cancellation path (paper §7: [Kill_element] aborts the dequeuer).
    The owner's eventual [commit] returns [Aborted] and re-notifies
    participants so any locks it acquired afterwards are released. Returns
    [false] if the transaction is unknown or already finished. *)

val is_active : txn -> bool

val decision : t -> Txid.t -> [ `Committed | `Aborted | `Pending ]
(** Answer an in-doubt participant: [`Committed] if a commit decision is
    logged and not yet retired, [`Pending] while the transaction is still
    deciding, [`Aborted] otherwise (presumed abort). *)

val set_resolver : t -> (string -> participant option) -> unit
(** How to reconstruct participant proxies by name after a restart. *)

val recover_pending : t -> unit
(** Spawn redelivery fibers for logged-but-unretired commit decisions.
    Call from a fiber, after {!set_resolver}. *)

val pending_decisions : t -> Txid.t list
(** Commit decisions not yet acknowledged by every remote participant.
    The [tm.pending:<tm>] gauge reports its length. *)

val stats : t -> int * int
(** (committed, aborted) counts for this incarnation. *)
