(** Queue elements.

    An element is the unit stored in a queue: an uninterpreted payload plus
    application-visible properties (used for content-based retrieval), a
    priority, and bookkeeping the QM maintains — the delivery (abort) and
    stale-return counts that drive error-queue handling, and the abort code
    stamped when the element is moved to an error queue. *)

type status =
  | Ready  (** Visible and dequeueable. *)
  | Deq_pending of Rrq_txn.Txid.t
      (** Dequeued by an uncommitted transaction: skipped by other
          dequeuers (the "readers ignore write-locked elements" rule of
          paper §10). *)

type t = {
  eid : int64;  (** Repository-unique element identifier. *)
  payload : string;
  props : (string * string) list;
  priority : int;  (** Higher priorities dequeue first. *)
  enq_time : float;  (** Submission (virtual) time; FIFO tie-break. *)
  mutable delivery_count : int;
  mutable stale_count : int;
      (** Returns by the janitor: aborts of an idle workspace that held the
          element. Not failed deliveries; bounded on their own. Not part of
          {!encode}: the QM's checkpoint carries the rare nonzero ones. *)
  mutable abort_code : string option;
  mutable status : status;
}

val make :
  eid:int64 -> payload:string -> props:(string * string) list ->
  priority:int -> enq_time:float -> t

val prop : t -> string -> string option
(** Look up a property value. *)

val key : t -> int * float * int64
(** Dequeue-order sort key: (-priority, enq_time, eid) — smallest first. *)

val encode : Rrq_util.Codec.encoder -> t -> unit
(** Serialize (status and stale count are not persisted; decoded elements
    are [Ready] with no stale returns). *)

val decode : Rrq_util.Codec.decoder -> t
