(** Globally unique transaction identifiers.

    A txid is [(origin, incarnation, n)]: the name of the transaction
    manager that started it, that TM's durable incarnation number (bumped on
    every restart so ids are never reused after a crash), and a counter. *)

type t = { origin : string; inc : int; n : int }

val make : origin:string -> inc:int -> n:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
module Tbl : Hashtbl.S with type key = t
(** A hash table keyed by txid, with a monomorphic hash and equality. *)

val to_string : t -> string
val encode : Rrq_util.Codec.encoder -> t -> unit
val decode : Rrq_util.Codec.decoder -> t
