(** FNV-1a 64-bit checksums, used to detect torn or corrupted WAL records. *)

val fnv1a64 : string -> int64
(** Checksum of a whole string. *)

val fnv1a64_sub : string -> pos:int -> len:int -> int64
(** Checksum of the substring [pos, pos+len). *)

val frame64 : string -> int64
(** Word-wise FNV-1a variant in unboxed native-int arithmetic (mod 2^63):
    ~8x cheaper than {!fnv1a64} and what the WAL frames records with.
    Detects torn and corrupted frames; NOT canonical FNV-1a, so only use
    it where writer and reader are both this repo. *)

val frame64_sub : string -> pos:int -> len:int -> int64
(** {!frame64} of the substring [pos, pos+len). *)

val frame64_bytes : Bytes.t -> pos:int -> len:int -> int64
(** {!frame64} over a byte buffer, without copying. *)

val frame64_pieces : ?skip:int -> string list -> int64
(** {!frame64} of the pieces' concatenation, without concatenating them,
    the first [skip] bytes of the first piece left out (default 0): a WAL
    frame whose payload holds spliced strings ({!Rrq_util.Codec.pieces},
    the first one led by the frame's header) is checksummed piece by
    piece. Pieces may be empty and need not be word-aligned. *)
