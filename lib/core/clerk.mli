(** The clerk: the client-side runtime library of the System Model
    (paper §5, fig. 5).

    The clerk translates the Client Model's five operations —
    Connect / Disconnect / Send / Receive / Rereceive — into tagged queue
    operations against the system site's QM, over RPC. The client is {e not}
    transactional (paper §2): every queue operation auto-commits at the QM,
    and fault tolerance comes from persistent registration:

    - [Send] enqueues the request into the request queue, tagged with its
      rid. Retries after a lost acknowledgment are harmless: the QM
      suppresses the duplicate because the registration's last-op tag
      already carries that rid.
    - [Receive] dequeues from the client's private reply queue, tagged with
      (previous rid, checkpoint). If the reply was already consumed by an
      earlier attempt whose acknowledgment was lost, the QM returns the
      retained copy instead (the registration element copy).
    - [Connect] re-registers and returns [(s_rid, r_rid, ckpt)], from which
      the resynchronization logic of fig. 2 (see {!Session}) decides
      whether to resend, re-receive, or proceed.

    The clerk also offers the paper's variations: [send_oneway] (Enqueue by
    one-way message, no acknowledgment wait) and [transceive]
    (Send+Receive merged). *)

type t

type connect_info = {
  s_rid : string option;  (** rid of the last Send recorded by the system. *)
  r_rid : string option;  (** rid tied to the last Receive. *)
  ckpt : string option;  (** checkpoint stored with the last Receive. *)
}

exception Unavailable of string
(** The system could not be reached within the retry budget. *)

exception Protocol_violation of string
(** Raised by strict clerks when an operation is illegal in the current
    fig. 1/7 client state (e.g. a second Send with a new rid before the
    previous reply was received). *)

val connect :
  client_node:Rrq_net.Net.node -> system:string -> ?backups:string list ->
  ?shard_map:Shard.map ->
  client_id:string ->
  req_queue:string -> ?reply_queue:string -> ?rpc_timeout:float ->
  ?retries:int -> ?strict:bool -> unit -> t * connect_info
(** Register the client with the request queue and its private reply queue
    (created-by-convention name ["reply." ^ client_id] unless given),
    each at the repository that owns it. Returns the resynchronization
    info.
    Routing: every operation goes to the shard that owns its queue under
    a {!Shard} map — [shard_map] if given, else a version-0 map with one
    shard, [system], whose failover candidates are [backups] (default
    none, e.g. an {!Ha} standby). A version-0 map is never wrapped in
    [Sh_routed] nor refreshed. Per shard the clerk sends to the candidate
    that last answered; a timeout or a standby's refusal rotates that
    shard to its next candidate and backs off [0.5 * rpc_timeout], and
    once every candidate has failed in a row the clerk asks the map's
    nodes for a newer map. Replies also piggyback newer maps; each
    adoption increments the [shard.refresh] counter
    ({!Rrq_obs.Metrics}). [retries] (default 10) bounds the node attempts
    of one operation, so neither a dead shard nor a stale map loops
    forever. Failover is mid-conversation: the registration tags make the
    retried Send/Receive exactly-once. Replies are addressed to the reply
    queue's owner, a name the promoted standby answers to.
    With [strict] (default false) every operation is checked against the
    fig. 1/7 state machine and {!Protocol_violation} is raised on an
    illegal sequence; retrying the {e same} Send or Receive is always
    legal (that is recovery, not a new transition). *)

val reconnect : t -> connect_info
(** Re-run Connect on an existing clerk (after a client crash, the
    application rebuilds the clerk and calls this — identical to
    [connect]). *)

val disconnect : t -> unit
(** Deregister from both queues, destroying the persistent session. *)

val client_id : t -> string
val reply_queue : t -> string

val send :
  t -> rid:string -> ?props:(string * string) list -> ?kind:string ->
  ?scratch:string -> ?step:int -> string -> int64
(** Enqueue a request (body) tagged with [rid]; returns when the request is
    stably stored, with its eid (kept for {!cancel_last_request}).
    [kind]/[scratch]/[step] feed the envelope: pseudo-conversational
    clients pass back the scratch pad and step of the last intermediate
    output (paper §8.2).
    @raise Unavailable *)

val send_oneway : t -> rid:string -> ?props:(string * string) list -> string -> unit
(** Fire-and-forget Send (one-way message, §5): no stable-storage
    confirmation; a loss surfaces as a Receive timeout and connect-time
    resynchronization. *)

val receive : t -> ?ckpt:string -> ?timeout:float -> unit -> Envelope.t option
(** Dequeue the next reply, blocking up to [timeout] (default 30).
    [ckpt] is checkpointed atomically with the dequeue (§4.3). [None] on
    timeout — the caller decides whether to retry or resynchronize.
    @raise Unavailable *)

val rereceive : t -> Envelope.t option
(** Return the reply most recently received (the QM's retained copy), even
    after the element left the queue. *)

val transceive :
  t -> rid:string -> ?props:(string * string) list -> ?ckpt:string ->
  ?timeout:float -> string -> Envelope.t option
(** Send then Receive as one client call (§5). *)

val cancel_last_request : t -> bool
(** Kill the element of the last Send (paper §7). True if the request was
    still waiting (or mid-execution) and is now gone; false if it already
    completed or no Send happened. *)

val cancel_request_anywhere : t -> sites:string list -> rid:string -> bool
(** Cancel by request identity rather than by element id: kill any element
    carrying this client's rid on any of the listed sites. Works after the
    request moved between queues (forwarding, pipelines), where the
    original eid no longer exists (§11's element-identity point). *)

val last_sent_eid : t -> int64 option

val state : t -> Client_fsm.state
(** The client's current fig. 1/7 state (tracked even when not strict). *)
