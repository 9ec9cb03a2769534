(** A site: one node hosting a transaction manager, a queue manager and a
    KV store, wired together with the RPC services that make the paper's
    System Model (fig. 4) work across nodes.

    The three components share one node log ({!Rrq_txn.Node_log}), so a
    transaction that touches only this site's QM and KV commits with one
    record and one force; participants on other sites commit by the TM's
    parallel commit.

    The site's boot procedure (run at creation and after every restart)
    re-opens the node log and its three recoverable components, re-creates
    the configured queues, re-registers services, and spawns the recovery
    daemons:

    - the TM's commit-redelivery fibers for logged-but-unacknowledged
      decisions (a standby leaves its decisions to promotion);
    - an in-doubt resolver that asks each prepared transaction's
      coordinator for its fate (abort on no record), leaving the sections
      of this node's own staged records to its TM, and asks about commits
      it has remembered for over a second (their forget was lost);
    - a janitor that unilaterally aborts stale unprepared workspaces (a
      dequeuer whose node died must not pin its element forever).

    The node log checkpoints itself whenever its live log outgrows the
    last snapshot (see {!Rrq_txn.Node_log.checkpoint}).

    Services exposed to other nodes:
    - ["qm"]: the clerk-facing queue operations (register, tagged
      enqueue/dequeue with duplicate suppression via registration tags,
      read-last, kill, deregister);
    - ["qm-tx"]: transactional remote enqueue (a pipeline stage pushing to
      the next site's queue inside its transaction);
    - ["rm"]: commit participation for this site's QM and KV: prepare,
      commit, abort, a recovering coordinator's status query and
      forgets;
    - ["tm"]: coordinator decision queries and remote force-abort. *)

type t

val create :
  ?queues:(string * Rrq_qm.Qm.attrs) list ->
  ?triggers:Rrq_qm.Qm.trigger list ->
  ?stale_timeout:float ->
  Rrq_net.Net.node ->
  t
(** Configure the node's boot procedure and boot it now; it runs again on
    every {!restart}. [stale_timeout] (default 30s of workspace idleness)
    tunes the janitor. *)

val node : t -> Rrq_net.Net.node
val site_name : t -> string
val log : t -> Rrq_txn.Node_log.t
val tm : t -> Rrq_txn.Tm.t
val qm : t -> Rrq_qm.Qm.t
val kv : t -> Rrq_kvdb.Kvdb.t
(** Accessors return the {e current} incarnation's log and components —
    do not cache them across a crash/restart. *)

val crash : t -> unit
val restart : t -> unit
val crash_restart : t -> after:float -> unit

val on_boot : t -> (t -> unit) -> unit
(** Register an additional boot step (e.g. starting a server on this site)
    and run it immediately. Re-runs on every {!restart}, after the core
    components are recovered. *)

(** {1 High-availability role (see {!Ha})} *)

val set_standby : t -> bool -> unit
(** A standby site rejects clerk-facing ["qm"] and ["qm-tx"] requests (the
    clerk fails over to another candidate) and suspends presumed-abort
    in-doubt resolution and commit redelivery: the primary resolves
    shipped prepares and delivers shipped decisions, and promotion takes
    over what is left. *)

val is_standby : t -> bool

val set_aliases : t -> string list -> unit
(** Peer node names this site answers for. After failover, server replies
    addressed to the dead primary's reply queues must be treated as local
    enqueues on the promoted backup rather than sent over the wire. *)

val aliases : t -> string list

val is_local_name : t -> string -> bool
(** [dst] is this site's own name or one of its {!aliases}. *)

val set_candidates : t -> (string -> string list) -> unit
(** The failover candidates of a remote repository, the named node first
    (default: just that node). {!remote_enqueue} tries them in order, so a
    reply bound for an HA shard whose primary is down reaches the promoted
    standby. {!Shard.attach} installs the shard map's candidate list. *)

(** {1 Transactions} *)

exception Aborted of string
(** Raised by {!with_txn} when the transaction could not commit (deadlock,
    forced abort, participant failure). The server loop treats it as "put
    the request back and move on". *)

val with_txn : t -> (Rrq_txn.Tm.txn -> 'a) -> 'a
(** Run [f] in a fresh transaction and commit. The QM and KV of this site
    are joined automatically and commit as one record on the node log;
    remote participants join via {!remote_enqueue}. Aborts (and re-raises
    {!Aborted}) if [f] raises or any participant refuses. *)

val remote_enqueue :
  t -> Rrq_txn.Tm.txn -> dst:string -> queue:string ->
  ?props:(string * string) list -> ?priority:int -> string -> unit
(** Enqueue into a queue on another site {e within} the given transaction:
    the remote QM buffers the update and joins the transaction as a 2PC
    participant. With [dst] equal to this site, a plain local enqueue.
    Otherwise the first of [dst]'s candidates ({!set_candidates}) that
    accepts the update becomes the participant.
    @raise Aborted if no candidate accepts. *)

val remote_participant : t -> rm_name:string -> Rrq_txn.Tm.participant
(** Commit proxy for a resource manager named "kind\@node" on another
    site, rebuilt by name (for redelivery and recovery). It carries no
    incarnation, so a prepare through it votes no: a participant joins a
    transaction through the operation that did its work
    ({!remote_enqueue}). *)

(** {1 Element views (wire-friendly copies)} *)

val reply_queue : string -> string
(** [reply_queue c] is client [c]'s default private reply queue,
    ["reply." ^ c] (re-exported as {!Shard.reply_queue}). *)

val reply_client : string -> string option
(** The inverse of {!reply_queue}: [Some c] for ["reply." ^ c], else
    [None] (allocation-free in that case). *)

type elem_view = {
  v_eid : int64;
  v_payload : string;
  v_props : (string * string) list;
  v_priority : int;
  v_delivery_count : int;
  v_abort_code : string option;
}

val view_of_element : Rrq_qm.Element.t -> elem_view

(** {1 Messages of the services (exposed for clerk/baselines)} *)

type Rrq_net.Net.payload +=
  | Q_register of { queue : string; registrant : string; stable : bool }
  | R_registered of {
      last_kind : [ `Enqueue | `Dequeue ] option;
      last_tag : string option;
      last_eid : int64 option;
    }
  | Q_enqueue of {
      registrant : string;
      queue : string;
      tag : string option;
      props : (string * string) list;
      priority : int;
      body : string;
          (** The element's payload. A request sent by a {!Clerk} is an
              {!Envelope}: [body] is the envelope's body itself, and its
              header leads [props] ({!Envelope.props}). *)
    }
  | R_eid of int64
  | Q_dequeue of {
      registrant : string;
      queue : string;
      tag : string option;
      filter : Rrq_qm.Filter.t option;
      timeout : float option;  (** [None] = no wait. *)
    }
      (** A client's Receive. From the registrant's own reply queue
          ({!reply_queue} [registrant]) it takes only an element whose
          [rid] property is its tag's rid, if the tag names one, and is
          lazy ({!Rrq_qm.Qm.auto_commit_lazy}): it answers once everything
          logged before its record is durable (and shipped, on a Sync HA
          pair), not its record itself, so a crash before the next force
          of this log gives the element back. From any other queue, which
          other dequeuers may share, it commits with a force of its own.
          A retry with the same rid gets the element its first attempt
          took. *)
  | R_element of elem_view option
  | Q_fence of string
      (** Make everything the repository of this queue has logged durable
          (and shipped): one {!Rrq_txn.Node_log.force_upto} of its tail,
          a no-op when another commit's force already covered it. A
          shard router forwards it to the queue's owner, as it does the
          queue's operations. A clerk sends it, naming its reply queue,
          when that queue and its requests live on different shards.
          Answered with [Ack]. *)
  | Q_read_last of { registrant : string; queue : string }
      (** [Rereceive]: the element the registrant's last tagged dequeue on
          [queue] removed ({!Rrq_qm.Qm.read_last}); [R_element None] when
          its last tagged operation there was an enqueue. *)
  | Q_kill of int64
  | Q_kill_where of Rrq_qm.Filter.t
  | R_int of int
  | R_bool of bool
  | Q_deregister of { registrant : string; queue : string }
  | Q_create_queue of string
      (** Create a queue with default attributes if absent (private client
          reply queues, §5's multiple-clients extension). *)
  | Q_enqueue_tx of {
      id : Rrq_txn.Txid.t;
      queue : string;
      props : (string * string) list;
      priority : int;
      body : string;
    }
  | R_tx_eid of { eid : int64; inc : int }
      (** A transactional operation's reply carries the QM's incarnation
          ({!Rrq_qm.Qm.incarnation}), which the prepare repeats. *)
  | T_decision of Rrq_txn.Txid.t
  | R_decision of [ `Committed | `Aborted | `Pending ]
  | T_force_abort of Rrq_txn.Txid.t
  | RM_prepare of {
      rm : string;
      id : Rrq_txn.Txid.t;
      coordinator : string;
      inc : int;  (** Votes no unless the RM's node is still in it. *)
    }
  | RM_commit of { rm : string; id : Rrq_txn.Txid.t }
  | RM_abort of { rm : string; id : Rrq_txn.Txid.t }
  | RM_status of { rm : string; id : Rrq_txn.Txid.t }
      (** A recovering coordinator's question ({!Rrq_txn.Tm.participant}'s
          [p_status]); answered with [R_status]. *)
  | R_status of Rrq_txn.Tm.rm_status
  | RM_forget of { rm : string; ids : Rrq_txn.Txid.t list }
      (** One-way: these commits' decision records are durable. *)

val clerk_service : t -> Rrq_net.Net.payload -> Rrq_net.Net.payload
(** The ["qm"] service body: one clerk-facing queue operation against this
    site's QM (standby-guarded). Exposed so a wrapper service — the shard
    router ({!Shard.attach}) — can delegate the operations it decides to
    serve locally while intercepting the rest.
    @raise Invalid_argument on a non-clerk payload. *)
