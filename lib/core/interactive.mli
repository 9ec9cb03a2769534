(** Interactive requests (paper §8): requests that exchange intermediate
    output/input with the client while executing.

    {2 Pseudo-conversational transactions (§8.2)}

    The interaction is mapped onto a serial multi-transaction request: each
    intermediate output is a reply, each intermediate input is the request
    for the next transaction, and the conversation state rides in the
    envelope's scratch pad (the IMS scratch-pad technique, §9). Every
    intermediate input therefore implicitly acknowledges the previous
    output, and each leg enjoys the full exactly-once machinery. The
    trade-offs are the paper's: no late cancellation without compensation,
    and request executions are not serializable.

    {2 Single-transaction conversations (§8.3)}

    The request executes as one transaction that solicits intermediate
    inputs by direct (unprotected) messages to the client's display
    service. The client logs every intermediate I/O durably, keyed by
    (rid, seq); if the transaction aborts and re-executes, logged inputs
    are replayed as long as the server's outputs match the log, and the
    log tail is discarded at the first divergence. Cancellation is
    possible until the last input ({!Clerk.cancel_last_request} aborts the
    running transaction), and executions are serializable. *)

(** {1 Pseudo-conversational} *)

type turn =
  | Intermediate of { output : string; scratch : string }
      (** Commit this leg; send [output] to the client and await its input;
          [scratch] carries the conversation state to the next leg. *)
  | Final of string  (** The conversation's real reply. *)

val pseudo_server :
  Site.t -> req_queue:string -> ?threads:int ->
  (Site.t -> Rrq_txn.Tm.txn -> Envelope.t -> turn) -> Server.t
(** Server for pseudo-conversations: the handler sees [env.step] (leg
    number) and [env.scratch] (state from the previous leg). *)

val pseudo_client :
  Clerk.t -> rid:string -> body:string ->
  respond:(step:int -> output:string -> string) -> Envelope.t option
(** Drive a conversation from the client: send the opening request, then
    answer each intermediate output via [respond] (fig. 7's
    Req-Sent ↔ Intermediate-I/O cycle) until the final reply, which is
    returned ([None] after 100 intermediate legs). *)

(** {1 Single-transaction conversations} *)

type Rrq_net.Net.payload +=
  | D_ask of { rid : string; seq : int; prompt : string }
  | D_input of string

type display
(** A client's display service and its durable I/O replay log. *)

val install_display :
  Rrq_net.Net.node ->
  user:(rid:string -> seq:int -> prompt:string -> string) -> display
(** Install the client-side display service with its durable I/O replay
    log. [user] produces fresh intermediate input; replayed prompts are
    answered from the log without consulting the user. Re-run this after a
    client restart (the log is recovered from the node's disk). A
    divergent prompt drops the later entries of its conversation durably:
    the log is checkpointed to the live entries then, and whenever it
    outgrows them by {!Rrq_txn.Node_log.checkpoint_due}. Only the
    node's service table and the caller hold the display, so it dies with
    its world. *)

val display_asks : display -> int
(** How many prompts reached the user (as opposed to being replayed) —
    lets tests verify replay actually short-circuits. *)

type console
(** Server-side handle for soliciting intermediate input within a
    transaction. *)

val console : Site.t -> Envelope.t -> display:string -> console
(** [display] is the node running the client's display service. *)

val ask : console -> string -> string
(** Send an intermediate output and wait for the matching input. Raises
    (aborting the surrounding transaction) if the client is unreachable —
    re-execution will replay the conversation from the client's log. *)
