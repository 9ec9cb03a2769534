(** Write-ahead log over {!Rrq_storage.Disk}.

    The WAL stores opaque record payloads framed with a length and an
    FNV-1a checksum. Recovery scans segments in order and stops at the first
    truncated or corrupt frame — so a torn tail lost in a crash silently
    truncates the log to its last complete record, which is exactly the
    contract resource managers rely on.

    [checkpoint] atomically installs a state snapshot and starts a fresh
    segment; older segments are deleted. Re-opening returns the latest
    snapshot plus every record logged after it. *)

type t

type recovered = {
  snapshot : string option;  (** Latest checkpoint snapshot, if any. *)
  records : string list;  (** Payloads appended after that snapshot, oldest first. *)
}

val open_log : Rrq_storage.Disk.t -> name:string -> t * recovered
(** Open (or create) the log called [name], recovering its contents. *)

val disk : t -> Rrq_storage.Disk.t
(** The disk holding this log (its device model governs force cost). *)

val name : t -> string
(** The log's base name, as passed to {!open_log} — used to key metrics
    and trace events. *)

val append : t -> string -> unit
(** Buffer a record at the log tail. Not durable until {!sync}. *)

val append_enc : t -> Rrq_util.Codec.encoder -> unit
(** Buffer the encoder's contents as one record, framed and checksummed
    identically to {!append}, with no intermediate string: the encoder's
    buffer stretches are copied once, behind the 16-byte header, into a
    fresh buffer, and that buffer with the encoder's spliced strings
    between its stretches ({!Rrq_util.Codec.splices}) is the layout
    handed to {!Rrq_storage.Disk.append}. No byte of a spliced string is
    copied, and the checksum, taken over the layout, is the one the flat
    frame would carry, so the bytes on the disk are the same. One path
    for every record, spliced or not; callers typically
    {!Rrq_util.Codec.reset} and refill a scratch encoder per commit. *)

val frame_header : int
(** Bytes in front of a frame's payload: its length and its checksum. *)

val frame : string -> string
(** The frame {!append} writes for a payload. *)

val frame_enc : Rrq_util.Codec.encoder -> string
(** The frame {!append_enc} writes for the encoder's contents, as one
    string, spliced strings copied in: what a log shipper retains
    ([Group_commit] appends it with {!append_frame} when it must). *)

val append_frame : t -> string -> unit
(** Buffer a whole frame, as {!frame} or {!frame_enc} built it (a record
    shipped from a primary), byte for byte: the disk keeps the string
    itself, with no copy and no new checksum. *)

val sync : t -> unit
(** Force all buffered records to stable storage. On success this advances
    {!durable_lsn} to {!appended_lsn}; if the disk is dead (crash-point
    injection) the durable LSN stays put. *)

val appended_lsn : t -> int
(** Records appended this incarnation (durable or not). *)

val durable_lsn : t -> int
(** Records of this incarnation known forced to stable storage. A commit
    whose last record has LSN [<= durable_lsn] may be acknowledged. *)

val append_sync : t -> string -> unit
(** [append] then [sync] — the force-write used at commit points. *)

val checkpoint : t -> Rrq_util.Codec.encoder -> (Rrq_util.Codec.encoder -> unit) -> unit
(** [checkpoint t e write] durably and atomically installs the snapshot
    [write] encodes and truncates the log: records appended before this
    call will not be replayed by future recoveries, and the segments that
    held them are deleted. The checkpoint file is built in [e], which is
    reset first, and the snapshot is written in place behind its length
    prefix. Ownership: [e]'s buffer becomes the checkpoint file
    ({!Rrq_storage.Disk.replace_atomic}), as views of its stretches
    with any spliced strings ({!Rrq_util.Codec.splices}) between them, and
    [e] goes on in the buffer that the file it replaces viewed, so the
    caller must not keep [Codec.bytes e] from before the call. Once both
    buffers have grown to the snapshot's size, a checkpoint copies the
    snapshot's unspliced bytes once (into [e]), its spliced strings not
    at all, and allocates for it only a few words per spliced string (its
    place in the layout, and the disk's views). The file's bytes are the flat
    encoding either way. While recording is on, counts
    [wal.checkpoints:<name>] and adds the file's size to
    [wal.ckpt_bytes:<name>]. *)

val live_log_bytes : t -> int
(** Frame bytes a recovery would scan now: those of the segments found at
    {!open_log} plus every frame appended since, reset by {!checkpoint}.
    A counter, so it costs nothing to read. *)

val snapshot_bytes : t -> int
(** Size of the checkpoint file: the last one {!checkpoint} installed, or
    the one {!open_log} found (0 if none). *)
