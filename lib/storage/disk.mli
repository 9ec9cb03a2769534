(** Simulated crash-consistent stable storage.

    A disk holds named append-only files plus atomically-replaceable files
    (used for checkpoints). Appended bytes sit in a volatile buffer until
    [sync]; {!crash} discards everything unsynced. With [torn_writes]
    enabled, a crash may instead retain a prefix of the unsynced tail of the
    file most recently appended to — modeling a partially flushed block —
    which the WAL detects via per-record checksums.

    This is the substitution for real disks: it preserves the property the
    paper's recovery arguments depend on, namely that exactly the
    force-written data survives a failure. *)

type t
(** A disk (one per simulated node). *)

type file
(** Handle to an append-only file on some disk. *)

val create :
  ?torn_writes:bool -> ?rng:Rrq_util.Rng.t -> ?sync_latency:float -> string -> t
(** Disk named [name] (for diagnostics). [torn_writes] defaults to false.
    [sync_latency] (default 0.0) is the virtual time one flush occupies the
    device — see {!reserve_sync}. *)

val name : t -> string

(** {1 Latency model}

    The disk itself is synchronous (it must stay usable outside the
    simulator), but it carries a cost model: one flush occupies the device
    for [sync_latency] virtual seconds, and flushes serialize. A
    group-commit leader calls [reserve_sync] with the current virtual time,
    sleeps for the returned duration, then issues the real {!sync} — so
    the flushes of a node's several logs queue on the device exactly as
    they would on a real WAL disk, and the commits that board a leader's
    batch share its one slot, which is what makes group commit
    measurable. *)

val sync_latency : t -> float
(** Configured per-flush device occupancy (0.0 = free syncs). *)

val reserve_sync : t -> now:float -> float
(** Claim the next device slot for a flush requested at virtual time [now];
    returns how long the requester must wait until its flush completes. *)

(** {1 Files}

    The disk takes bytes through two calls, {!append} and
    {!replace_atomic}, and both take them as one {e layout}: a buffer
    [buf], the strings [spliced] into it, oldest first, each with the
    position of [buf] it goes in front of ({!Rrq_util.Codec.splices}),
    and [len], the bytes of the layout, strings included. Its bytes are
    [buf]'s from its start with the strings put in between, and the disk
    keeps them as views: the stretches of [buf] between the strings, and
    the strings themselves. Nothing is copied on the way in. *)

val open_file : t -> string -> file
(** Open (creating if absent) an append-only file. Contents persist across
    re-opens; re-opening returns a handle to the same state. *)

val append : file -> Bytes.t -> spliced:(int * string) list -> len:int -> unit
(** Buffer a layout at the end of the file (volatile until [sync]). The
    disk never writes to [buf] or the strings, so the caller may hand in a
    string's bytes ([Bytes.unsafe_of_string]), but must not write to [buf]
    again either. *)

val sync : file -> unit
(** Force all buffered bytes of this file to durable storage. The views
    appended since the last sync become durable as they are, or, when
    they add up to under 4 KiB ({!Rrq_util.Codec.splice_min}), are
    copied once: into the newest chunk of durable contents if it is a
    buffer the disk owns with room for them, else into a new 16 KiB page
    when that chunk is one the disk owns (or there is none), else, after
    bytes the disk was handed, into a buffer of exactly their size. No
    appended byte is ever written to. *)

val sync_all : t -> unit
(** [sync] every file on the disk. *)

val read : file -> string
(** Contents including unsynced bytes (what a live process reads back). *)

val read_durable : file -> string
(** Contents that would survive a crash right now. *)

val size : file -> int
val durable_size : file -> int

val replace_atomic :
  t -> string -> Bytes.t -> spliced:(int * string) list -> len:int -> Bytes.t
(** [replace_atomic t name buf ~spliced ~len] durably replaces the full
    contents of a (possibly new) file with the layout, atomically: the
    write-temp-then-rename idiom used for checkpoints. Counts as one
    sync. Nothing is copied: the file is views of [buf] between the
    strings, and the strings. The disk takes ownership of [buf], and the
    caller must never write to it again; a caller holding a string hands
    in a fresh copy. In exchange it returns a buffer the caller now owns:
    one that held the contents just replaced, if the disk owned one (one
    handed in this way, say; all of its views share it), else
    [Bytes.empty]. So a writer that checkpoints the same file again and
    again, spliced or not, trades the same two buffers with the disk and
    allocates no buffer. No reader aliases a durable buffer ({!read},
    {!read_durable} and {!read_file} copy), so the returned one holds
    nothing anyone still reads. If the disk is dead nothing is written,
    and [buf] itself comes back. *)

val read_file : t -> string -> string option
(** Durable-plus-buffered contents of a named file, if it exists. *)

val file_size : t -> string -> int option
(** Size (durable + buffered) of a named file without reading its contents
    — the stat-style metadata lookup. *)

val delete : t -> string -> unit
(** Durably remove a file (log-segment garbage collection). *)

val exists : t -> string -> bool
val list_files : t -> string list

val crash : t -> unit
(** Drop all unsynced bytes (or keep a torn prefix, see above). Open handles
    remain usable — they model re-opened files after restart. *)

(** {1 Crash-point injection} *)

val kill_after_syncs : t -> int -> unit
(** Arm a crash trigger: after [n] further sync operations are {e about} to
    happen, the disk freezes — the triggering sync does not persist, all
    later writes and syncs are silently ignored (they never become
    durable), and durable contents stay exactly as they were. Used by the
    crash-point sweep tests to stop the world at every possible durability
    boundary. *)

val kill_now : t -> unit
(** Freeze the disk immediately: unsynced bytes are discarded and every
    later write or sync is silently ignored until {!revive} — the same
    terminal state as a fired {!kill_after_syncs} trigger. Used by crash
    actions armed at named crash sites ([Rrq_sim.Crashpoint]), where the
    fiber that reached the site keeps running until its next suspension
    point and must not produce durable effects in that window. *)

val revive : t -> unit
(** Clear the dead state (the "replacement hardware" for the next
    incarnation); durable contents are untouched. *)

val is_dead : t -> bool

(** {1 Accounting} *)

val synced_bytes : t -> int
(** Total bytes made durable so far. *)

val sync_count : t -> int
(** Number of sync operations (incl. atomic replaces). *)

val reset_counters : t -> unit
