(** FNV-1a 64-bit checksums, used to detect torn or corrupted WAL records. *)

val fnv1a64 : string -> int64
(** Checksum of a whole string. *)

val frame64 : string -> int64
(** Word-wise FNV-1a variant in unboxed native-int arithmetic (mod 2^63):
    ~8x cheaper than {!fnv1a64} and what the WAL frames records with.
    Detects torn and corrupted frames; NOT canonical FNV-1a, so only use
    it where writer and reader are both this repo. *)

val frame64_sub : string -> pos:int -> len:int -> int64
(** {!frame64} of the substring [pos, pos+len). *)

val frame64_layout :
  Bytes.t -> spliced:(int * string) list -> pos:int -> len:int -> int64
(** [frame64_layout buf ~spliced ~pos ~len] is {!frame64} of the [len]
    bytes from position [pos] of a layout: [buf] with each string of
    [spliced] (oldest first) put in front of the position of [buf] it
    names ({!Rrq_util.Codec.splices}), nothing concatenated. No string
    may go in front of [pos]. A WAL frame is checksummed this way,
    spliced or not ([~spliced:[]] is {!frame64} of a stretch of [buf]).
    Stretches and strings need not be word-aligned. Allocates nothing. *)
