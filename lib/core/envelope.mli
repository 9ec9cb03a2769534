(** The request/reply data structure exchanged through queues (paper §2:
    "a request is a data structure that describes some work").

    An envelope is a queue element: its header (every field but [body])
    travels in the element's properties ({!props}) and its body is the
    element's payload, so no layer copies the body to wrap or unwrap it.
    It names the client and its private reply queue (the multiple-clients
    extension of §5), carries the request id the whole protocol revolves
    around, a handler-dispatch kind, the application body, and two fields
    for multi-transaction requests (§6): the IMS-style scratch pad that
    carries state from one transaction of a chain to the next, and the step
    number. *)

type t = {
  rid : string;  (** Client-chosen request id. *)
  client_id : string;
  reply_node : string;  (** Node hosting the client's reply queue. *)
  reply_queue : string;
  kind : string;  (** Request type (dispatch / content-based filters). *)
  body : string;
  scratch : string;  (** State passed between chained transactions (§6). *)
  step : int;  (** Position in a multi-transaction pipeline. *)
}

val make :
  rid:string -> client_id:string -> reply_node:string -> reply_queue:string ->
  ?kind:string -> ?scratch:string -> ?step:int -> string -> t
(** Envelope with the given body; [kind] defaults to ["request"]. *)

val reply_to : t -> body:string -> t
(** The reply envelope for a request: same rid/client, kind ["reply"]. *)

val with_body : t -> body:string -> scratch:string -> t
(** Next-step envelope for pipelines: bumps [step]. *)

val props : t -> (string * string) list
(** The header as element properties: [scratch] when it is non-empty, then
    [step] when it is non-zero, then [rid], [kind], [client], [reply_node]
    and [reply_queue]. Enqueue an envelope as [~props:(props env) env.body];
    append application properties after these, never before. Filters and
    triggers see the header fields as ordinary properties. *)

val of_parts : props:(string * string) list -> string -> t
(** [of_parts ~props body] rebuilds the envelope an element carries from
    its properties and payload; the body is [body] itself, not a copy.
    [of_parts ~props:(props e) e.body = e], and properties after the
    header never change the result.
    @raise Rrq_util.Codec.Decode_error when [props] does not begin with an
    envelope header (a poison element for {!Server}). *)

val to_string : t -> string
(** The envelope's value codec: the whole envelope, body included, as one
    string, for storing an envelope as a value (a {!Pipeline} saga record
    in the KV store). Requests and replies do not travel this way. *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Rrq_util.Codec.Decode_error on malformed input. *)
