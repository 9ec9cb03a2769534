(** Sharded multi-repository scale-out: partition queues across N
    repositories so each shard keeps its own WAL/TM/QM and log forces run
    in parallel, while clerks route by a replicated, versioned shard map.

    {b The map.} A map names the shard repositories (plus optional HA
    backup candidates per shard), the queues that are {e partitioned by
    registrant} ([sharded_queues] — the shared request queues, where client
    affinity keeps one client's requests on one shard), and explicit
    [pins]. Routing key: [queue ^ "#" ^ registrant] for sharded queues,
    [queue] otherwise; owner: the pin if present, else FNV-1a hash modulo
    the shard list. A client's private reply queue ({!reply_queue}) lives
    with its requests: unpinned, [reply.<c>] is placed by the hash of
    [q ^ "#" ^ c], where [q] is the first of [sharded_queues], so the
    server transaction that dequeues a request and enqueues its reply
    commits on one shard. That hash ignores pins on [q#c]; a pin on
    [reply.<c>] itself wins. Every other queue routes by its name alone.
    A map with no sharded queue places every queue by its name.

    {b Routing.} A clerk ({!Clerk}) routes every operation by a map: to
    the current candidate of the shard owning the operation's key. It
    wraps the operation in [Sh_routed] carrying its map version. The
    receiving repository serves the operation if it owns the key under
    {e its} map, else relays it one hop to the owner — never more than
    2 relays, so stale maps cannot loop a request. Replies
    piggyback the newer map whenever the requester's version lags (the
    clerk's refresh path).

    {b Version 0.} An unsharded clerk routes by a version-0 map: one shard
    (its system node), with that node's HA backups as candidates. No
    router is attached for it, so a version-0 clerk sends its operations
    unwrapped and never asks for a newer map. Attached maps start at
    version 1.

    {b Exactly-once across map changes.} A retried operation can reach a
    new owner that has no registration record for the client. For tagged
    operations on sharded queues the owner then {e pulls} the peers'
    registration records ([Sh_pull_reg], answered from
    {!Rrq_qm.Qm.lookup_registration} without creating anything) and
    suppresses against any match; if a peer shard is entirely unreachable
    the operation fails instead (exactly-once over availability — the
    clerk retries). A version-1 map has never changed, so the pull is
    skipped entirely.

    {b Cross-shard transactions.} A server's dequeue-process-enqueue whose
    reply queue lives on another shard (pinned there, or custom-named)
    runs the existing 2PC: the reply enqueue joins the remote shard's QM
    as a participant ({!Site.remote_enqueue}) — nothing shard-specific is
    needed.

    {b Constraints.} Map changes must keep the ownership of non-sharded
    queues stable (same shard list, same first sharded queue, and the
    same pins for them): in-flight replies are addressed to the reply
    queue's owner at Send time. Pins on request keys may change freely,
    since reply placement does not read them. A reply queue must not
    itself be a sharded queue.

    {b Crash sites} ({!Rrq_sim.Crashpoint}): [shard.route:<node>] (routed
    operation received), [shard.forward:<node>] (about to relay a misroute)
    and [shard.map_install:<node>] (map install accepted) — swept alongside
    the [wal.*]/[tm.*] sites by the shard-fault campaign. Per-node metrics:
    [shard.forwards:*], [shard.misroutes:*], [shard.map_installs:*]. *)

type map = {
  version : int;  (** Monotone; higher versions replace lower on install. *)
  shards : string list;  (** Shard repository node names, hash order. *)
  backups : (string * string list) list;
      (** Per-shard failover candidates (an HA pair's standby). *)
  sharded_queues : string list;
      (** Queues partitioned by registrant affinity. *)
  pins : (string * string) list;  (** Routing-key -> shard overrides. *)
}

val key_for : map -> queue:string -> registrant:string -> string
(** The routing key of an operation. *)

val owner : map -> string -> string
(** The shard owning a routing key: its pin, else hash placement (of the
    client's request key for an unpinned reply queue).
    @raise Invalid_argument on an empty shard list. *)

val reply_queue : string -> string
(** [reply_queue c] is client [c]'s default private reply queue,
    ["reply." ^ c]. *)

val reply_client : string -> string option
(** The inverse of {!reply_queue}: [Some c] for ["reply." ^ c], else
    [None] (allocation-free in that case). *)

val candidates : map -> string -> string list
(** The owner of a routing key followed by its shard's backup candidates.
    The clerk rotates through this list, per shard, on a timeout or a
    standby's refusal; the head names the shard. *)

val all_nodes : map -> string list
(** Every repository node named by the map (shards then backups). *)

(** {1 Attaching the router to a repository} *)

type t

val attach : ?untag_forward_bug:bool -> Site.t -> map -> t
(** Wrap the site's ["qm"] service with the shard router and register the
    ["shard"] service (map install/query, registration pull); re-installed
    on every boot. The site's cross-shard enqueues fail over along the
    current map's candidates ({!Site.set_candidates}).
    [untag_forward_bug] (default false) is the {e designed anomaly} for the
    checker: the forwarder strips registration tags, so a retry that
    crosses a map change duplicates — fault-free it is harmless, under
    faults the explorer must catch it. *)

val site : t -> Site.t

val install : t -> map -> unit
(** Locally adopt [map] if its version is newer (test setup; remote
    installs go through the ["shard"] service). *)

val install_from : Rrq_net.Net.node -> shards:string list -> map -> string list
(** Push [map] to each named repository from an admin/client node; returns
    the shards that acknowledged (the caller re-pushes the rest). *)

(** {1 Wire protocol} *)

type reg_view = {
  rv_kind : [ `Enqueue | `Dequeue ];
  rv_tag : string;
  rv_eid : int64;
  rv_element : Site.elem_view option;
}
(** A registration's last tagged operation, as shipped by a pull. *)

type Rrq_net.Net.payload +=
  | Sh_routed of { version : int; hops : int; inner : Rrq_net.Net.payload }
      (** A clerk operation wrapped with the sender's map version and the
          relay count so far. *)
  | Sh_reply of { newer : map option; inner : Rrq_net.Net.payload }
      (** The operation's reply; [newer] piggybacks the repository's map
          when the requester's version lagged. *)
  | Sh_install of map
  | Sh_get_map
  | Sh_map of map
  | Sh_pull_reg of { queue : string; registrant : string }
  | Sh_reg of reg_view option
