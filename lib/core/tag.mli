(** Operation-tag codec.

    The clerk tags queue operations with client state (paper §4.3, §5):
    a Send's tag is the request id; a Receive's tag is the rid of the
    previous Send plus the client's checkpoint. This module packs both
    into the single string the QM stores. *)

val send : rid:string -> string
(** Tag for the Enqueue performed by Send. *)

val receive : rid:string option -> ckpt:string option -> string
(** Tag for the Dequeue performed by Receive. *)

val rid_piece : string -> string option
(** The rid component of a tag (either kind). *)

val ckpt_piece : string -> string option
(** The checkpoint component (Receive tags only). *)

type op = [ `Enqueue of string | `Dequeue of string ]
(** A tagged queue operation: its kind and its tag. *)

val repeats : [< op ] -> kind:[ `Enqueue | `Dequeue ] -> tag:string -> bool
(** Whether the operation repeats a registration's last operation ([kind],
    [tag]) — the QM's duplicate suppression (§4.3): an Enqueue repeats an
    Enqueue with the same tag, a Dequeue a Dequeue whose tag carries the
    same rid. *)
