(** Binary encoding/decoding of structured values into byte strings.

    All multi-byte integers are little-endian. Strings are length-prefixed.
    The codec is used by the WAL, the checkpointers, and the registration
    store, so changes here change the on-"disk" format.

    {b Spliced strings.} {!string} does not copy a string of {!splice_min}
    bytes or more into the encoder's buffer: it writes the length prefix
    and keeps the string itself, by reference, with its position. The
    encoding is the same bytes either way. {!length} counts spliced
    strings, {!to_string} and {!finish} spread them into the result, and
    {!end_length} counts those encoded since its {!begin_length}. Only
    {!bytes} sees the difference: it holds the buffer's stretches without
    the strings between them, which {!splices} places, so a caller that
    hands the buffer on hands the layout with it. A spliced string is
    never written to, and the encoder drops it on {!reset}. *)

type encoder
(** Mutable accumulator for an encoding in progress. *)

val encoder : ?size:int -> unit -> encoder
(** Fresh empty encoder with room for [size] bytes (default 64) before it
    grows. *)

val splice_min : int
(** The length, one disk page (4096), from which {!string} keeps a string
    by reference. [Rrq_storage.Disk] moves a sync of this many bytes to
    durable storage without copying it, so a spliced string is never
    copied on its way to the disk either. *)

val to_string : encoder -> string
(** Contents encoded so far, spliced strings spread in. *)

val finish : encoder -> string
(** Contents encoded so far, leaving the encoder empty. When the encoder
    was sized exactly (see {!encoder}) its buffer becomes the string
    without a copy; spliced strings are spread into it in place. *)

val reset : encoder -> unit
(** Rewind to empty, keeping the underlying buffer and dropping every
    spliced string. Commit fast paths reuse one scratch encoder per log
    rather than allocating per record. *)

val length : encoder -> int
(** Number of bytes encoded since creation or the last {!reset}, spliced
    strings included. *)

val spliced : encoder -> bool
(** Whether some string encoded since the last {!reset} is held by
    reference. *)

val bytes : encoder -> Bytes.t
(** The underlying buffer, and any later encoder call may replace or
    overwrite it. Its first {!buffered} bytes are the contents' stretches
    between spliced strings, which {!splices} places (the whole contents
    unless {!spliced}): for the framing layers that copy it or hand it on
    ([Wal.append_enc], [Wal.checkpoint]). Everyone else should use
    {!to_string}. *)

val buffered : encoder -> int
(** Bytes of {!bytes} that hold contents: {!length} less the spliced
    strings. *)

val splices : encoder -> off:int -> (int * string) list
(** The spliced strings, oldest first, each with the position it goes in
    front of in a copy of {!bytes} placed at [off]: with that copy and
    {!length} (plus [off]), the contents as a layout, the strings not
    copied. [[]] unless {!spliced}. For a writer that hands the layout to
    [Rrq_storage.Disk]: [Wal.checkpoint] hands {!bytes} itself
    ([~off:0]), [Wal.append_enc] a copy of its first {!buffered} bytes
    behind a frame header. *)

val blit : encoder -> Bytes.t -> int -> unit
(** [blit e dst off] writes the contents ({!length} bytes) into [dst] at
    [off]. *)

val adopt : encoder -> Bytes.t -> unit
(** [adopt e buf] makes [buf] the encoder's buffer, empty, and drops the
    old one. For a caller that gave {!bytes} away to an owner that handed
    back another buffer in exchange ([Wal.checkpoint] with
    [Rrq_storage.Disk.replace_atomic]). Drops every spliced string. *)

val u8 : encoder -> int -> unit
(** Append one byte (0..255). *)

val i64 : encoder -> int64 -> unit
(** Append a 64-bit integer. *)

val int : encoder -> int -> unit
(** Append an OCaml int (stored as 64-bit). *)

val bool : encoder -> bool -> unit
(** Append a boolean as one byte. *)

val float : encoder -> float -> unit
(** Append a float (IEEE-754 bits). *)

val string : encoder -> string -> unit
(** Append a length-prefixed string. *)

val begin_length : encoder -> int
(** Reserve the length prefix of a string whose bytes the caller encodes
    next, in place; returns the slot for {!end_length}. *)

val end_length : encoder -> int -> unit
(** [end_length e slot] fills the slot with the number of bytes encoded
    since {!begin_length} returned it. The two bracket the bytes that
    [string e (to_string sub)] would write for a separate encoder [sub],
    without that encoder or its string: a record or checkpoint made of
    sections written by several owners uses them. *)

val raw : encoder -> string -> unit
(** Append bytes verbatim, with no length prefix (for framing layers that
    track lengths themselves). *)

val option : (encoder -> 'a -> unit) -> encoder -> 'a option -> unit
(** Append an option: presence byte then payload. *)

val list : (encoder -> 'a -> unit) -> encoder -> 'a list -> unit
(** Append a list: length then elements. *)

val pair :
  (encoder -> 'a -> unit) -> (encoder -> 'b -> unit) -> encoder ->
  'a * 'b -> unit
(** Append a pair, first component first. *)

type decoder
(** Cursor over an encoded string. *)

exception Decode_error of string
(** Raised when the input is truncated or malformed. *)

val decoder : ?pos:int -> string -> decoder
(** Decoder positioned at byte [pos] of [s] (default the start). *)

val at_end : decoder -> bool
(** Whether all input has been consumed. *)

val get_u8 : decoder -> int
val get_i64 : decoder -> int64
val get_int : decoder -> int
val get_bool : decoder -> bool
val get_float : decoder -> float
val get_string : decoder -> string
val get_option : (decoder -> 'a) -> decoder -> 'a option
val get_list : (decoder -> 'a) -> decoder -> 'a list
val get_pair : (decoder -> 'a) -> (decoder -> 'b) -> decoder -> 'a * 'b
