(** Simulated network of nodes with RPC.

    Nodes host services (named request handlers that run in their own fiber
    and may block). Messages experience configurable latency and loss, and
    node pairs can be partitioned. A node crash kills every fiber it runs
    and discards the unsynced tail of its disk; restart re-runs its boot
    procedure (the recovery path of whatever the node hosts).

    This substitutes for the multi-machine deployment of a real TP system:
    what the paper's protocols care about — independent failures of client,
    server, and the communication between them (§1, §2) — is preserved. *)

type t
(** A network bound to one scheduler. *)

type node

type payload = ..
(** Message payloads; each layer extends this with its own constructors,
    keeping the network generic without serialization overhead (durability
    realism lives in the WAL, not the wire). *)

type payload += Ack  (** Generic empty reply. *)

exception Rpc_timeout
(** The reply did not arrive in time: lost request, lost reply, dead or
    partitioned destination — indistinguishable to the caller, exactly the
    ambiguity the paper's protocols are built to tolerate. *)

exception Service_error of string
(** The remote handler raised; the error text travels back to the caller. *)

val create :
  ?latency:float -> ?jitter:float -> ?drop_rate:float ->
  Rrq_sim.Sched.t -> Rrq_util.Rng.t -> t
(** A network with one-way [latency] (default 0.005) plus uniform [jitter]
    (default 0), dropping each message with probability [drop_rate]. *)

val sched : t -> Rrq_sim.Sched.t

val partition : t -> string -> string -> unit
(** Cut both directions between two nodes. *)

val heal : t -> string -> string -> unit
val partitioned : t -> string -> string -> bool

(** {1 Nodes} *)

val make_node : ?torn_writes:bool -> ?sync_latency:float -> t -> string -> node
(** Create a node (with its own disk) in the up state. [sync_latency]
    (default 0) is the virtual seconds one disk flush occupies the device —
    the knob that makes commit-path experiments measure something. *)

val node : t -> string -> node
(** Look up an existing node by name.
    @raise Not_found *)

val node_name : node -> string
val disk : node -> Rrq_storage.Disk.t
val is_up : node -> bool
val network : node -> t

val spawn_on : node -> name:string -> (unit -> unit) -> unit
(** Run a fiber belonging to the node (killed when the node crashes).
    No-op if the node is down. *)

val add_service : node -> string -> (payload -> payload) -> unit
(** Register/replace a named service. Handlers run in a fresh fiber per
    request and may block; whatever they raise becomes {!Service_error} at
    the caller. *)

val set_boot : node -> (node -> unit) -> unit
(** The boot procedure: opens the node's RMs from disk, re-registers
    services, spawns daemons. Run by {!boot} and by {!restart}. *)

val boot : node -> unit
(** Run the boot procedure now (initial start). *)

val crash : node -> unit
(** Kill all the node's fibers, clear its services, lose unsynced disk
    state. In-flight messages to the node are dropped. *)

val restart : node -> unit
(** Mark the node up and run its boot procedure. *)

val crash_restart : node -> after:float -> unit
(** Crash now and schedule a restart after a (virtual) delay. A no-op on a
    node that is already down, so overlapping faults cannot boot it twice. *)

(** {1 Messaging} *)

val call :
  node -> ?timeout:float -> dst:string -> service:string -> payload -> payload
(** Remote procedure call from a node (default timeout 5.0).
    @raise Rpc_timeout
    @raise Service_error *)

val call_async :
  node -> ?timeout:float -> dst:string -> service:string -> payload ->
  unit -> payload
(** Send the request now and return how to wait for its reply: {!call}
    split in two, so a caller can overlap the round trip with its own
    work. The timeout runs from the send. *)

val cast : node -> dst:string -> service:string -> payload -> unit
(** One-way message: no reply, no delivery guarantee (the paper's
    "one-way message" Send optimization, §5). *)

(** {1 Accounting} *)

val messages_sent : t -> int
val messages_dropped : t -> int
