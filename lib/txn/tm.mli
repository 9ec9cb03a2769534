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
    - {e parallel commit} when some participants are on other logs
      (another node's RMs through the ["rm"] service, or an RM with a log
      of its own). The TM appends a {e staged} record (the local
      participants' workspaces as in-doubt sections, and the remote
      participants' names) and forces it while the prepares are in
      flight. The transaction is committed once the staged record is
      durable and every remote participant voted yes; the decision record
      (the local commit sections and the decision) is then appended
      without a force of its own, and the commits are delivered at once.
      A no vote or a lost one forces an abort record before {!commit}
      returns [Aborted].

    Recovery finds a staged record without a decision and asks every
    remote participant its status ({!participant.p_status}): committed if
    each answers prepared or committed, aborted otherwise. Participants
    therefore remember a commit until the coordinator's decision record
    is durable ({!participant.p_forget}).

    The coordinator log also drives {e commit redelivery}: once a commit
    decision is logged, delivery to every remote participant is retried
    (across coordinator restarts, via {!set_resolver} +
    {!recover_pending}) until all have acknowledged it. A participant
    acknowledges only once its commit record is durable; an End record
    then retires the transaction. *)

type t

type outcome = Committed | Aborted

type rm_status = [ `Prepared | `Committed | `Unknown ]
(** A participant's knowledge of a transaction: in doubt, committed and
    not yet forgotten, or neither. *)

type local = {
  l_log : Node_log.t;  (** The node log this RM writes. *)
  l_stage : Txid.t -> Node_log.part;
      (** The workspace as a section of a one-record commit. *)
  l_prepare : Txid.t -> coordinator:string -> Node_log.part;
      (** The workspace as an in-doubt section of a staged record. *)
  l_decide : Txid.t -> Node_log.part;
      (** The commit of an in-doubt transaction, as a section of its
          decision record. *)
}
(** How an RM hands its work to records on its node log. A participant
    on the coordinator's log joins the coordinator's records. *)

type participant = {
  part_name : string;  (** Stable name, resolvable after a restart. *)
  p_local : local option;  (** [None] for a proxy of an RM on another node. *)
  p_prepare : Txid.t -> coordinator:string -> unit -> bool;
      (** Ask for a vote, and return how to wait for it (a remote RM's
          round trip overlaps the coordinator's own force): [true] once the
          RM forced a yes-vote, [false] for a no-vote or an unreachable RM.
          An RM asked to prepare is expected to hold work: if it lost it,
          it votes no. *)
  p_commit : Txid.t -> bool;
      (** Deliver the commit decision; [true] once the commit record is
          durable at the participant, [false] to have it redelivered. The
          participant remembers the commit until {!p_forget}. *)
  p_abort : Txid.t -> unit;  (** Best-effort abort notice. *)
  p_has_work : Txid.t -> bool;
      (** Whether the RM buffered any update for this transaction. Workless
          participants are excused from commitment with an abort notice
          (which only releases their read locks), so a transaction that
          wrote at one RM and only read at others involves only the
          first. *)
  p_status : Txid.t -> rm_status option;
      (** Recovery's question about a staged transaction; [None] if the RM
          is unreachable. Answering [`Unknown] discards any workspace the
          RM holds for it, so a late prepare votes no. *)
  p_forget : Txid.t list -> unit;
      (** Best-effort notice that these commits' decision records are
          durable: the participant may stop remembering them. *)
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
(** Answer an in-doubt participant: [`Pending] while the transaction is
    deciding, until its outcome is durable, and while a recovered staged
    record is unresolved; [`Committed] if a commit decision is logged and
    not yet retired; [`Aborted] otherwise (presumed abort). *)

val set_resolver :
  t -> ?locals:participant list -> (string -> participant option) -> unit
(** How to reconstruct participant proxies by name after a restart, and
    the RMs on this TM's node log ([locals], default none), whose in-doubt
    sections of a recovered staged record the resolution commits or
    aborts. *)

val recover_pending : t -> unit
(** Spawn redelivery fibers for logged-but-unretired commit decisions, and
    a resolution fiber for each staged record without a decision. Call
    from a fiber, after {!set_resolver}. *)

val pending_decisions : t -> Txid.t list
(** Commit decisions not yet acknowledged by every remote participant.
    The [tm.pending:<tm>] gauge reports its length, and [tm.staged:<tm>]
    the number of staged records without a decision. *)

val stats : t -> int * int
(** (committed, aborted) counts for this incarnation. *)
