(** Highly-available queues: a primary-backup repository pair built from
    WAL shipping (paper §11 taken from the two-copy demo to a full role
    protocol).

    The {e primary} runs the normal site stack and ships every record of
    its node log (which its TM, QM and KV store share) to the {e standby}
    over the network, in the ship rounds of {!Rrq_wal.Group_commit}: in
    [Sync] mode a commit-point force starts the round for its records
    alongside its local sync and does not return until the backup has
    acknowledged them — the replication analogue of the
    durability-before-reply rule — while [Lagged d] drains retained
    records every [d] seconds and releases replies speculatively (the
    window the failover test campaign probes).

    The {e standby} appends shipped records into its own node log, in
    primary-LSN order (a batch that overtook its predecessor waits for
    it), replays each section into its TM, QM or KV store at once (warm by
    construction) and forces its log before it acknowledges. It holds the
    primary's unretired commit decisions too. A resync installs one node
    snapshot, which carries them as well. A standby rejects clerk-facing
    requests ({!Site.set_standby}), so clerks fail over by rotation.

    {b Failover}: the standby heartbeats the primary every 0.25 s; after 3
    consecutive misses plus one confirmation probe it promotes — provided
    this incarnation has installed a resync snapshot. A standby back from
    a crash may lack commits the primary made alone, so its heartbeats ask
    for a resync, it refuses ship rounds, and it never promotes before a
    resync: if the primary dies first, the pair waits for it. A primary
    back from a crash may have lost records its standby holds (a round
    leaves while the primary's own sync runs), so its role query unsyncs
    the standby the same way. A promoting standby durably
    flips its role file (atomic, no intervening yield), bumps the QM
    incarnation so fresh eids and auto-txids cannot collide with the old
    primary's, redelivers the primary's unretired commit decisions to
    their remote participants (the primary ships a decision before it
    delivers it), aliases the dead primary's node name so in-flight
    replies land locally, opens the gates and starts serving. A primary that lost
    its peer, or hears that a restarted peer holds no snapshot, degrades
    to standalone and periodically retries; the link is
    re-established with a full snapshot resync. A restarting ex-primary
    stays gated until it has asked the peer's role: it demotes itself if
    the peer meanwhile promoted (higher epoch), which makes double
    failover (back onto the recovered ex-primary) work.

    Crash sites for the failover campaign: ["ship.start"] (a round holds
    its records, nothing sent), ["ship.sent"] (backup holds the batch,
    primary about to continue), ["ship.applied"] (batch durable on the
    backup, ack in flight), ["ha.resync"] (the standby answered the resync
    query, no install sent), ["ha.heartbeat_miss"] (takeover decision
    made), ["ha.promote"] (promotion underway).

    Metrics, per node: counters [ha.ship_rounds], [ha.ships_overtaken],
    [ha.degrades], [ha.resyncs], [ha.promotions]; gauge
    [ha.ships_in_flight]; series [ha.ship_rtt_ms]. *)

type role = Primary | Standby

val role_to_string : role -> string

type mode =
  | Sync  (** Commit forces gate on the backup's acknowledgement. *)
  | Lagged of float
      (** Ship retained records every [d] seconds; replies are speculative
          up to one lag window. *)

type t

val attach :
  ?mode:mode ->
  ?ship_timeout:float ->
  ?cold:bool ->
  ?replay_bytes_per_sec:float ->
  ?on_serving:(t -> unit) ->
  Site.t ->
  peer:string ->
  role:role ->
  t
(** Attach the HA role protocol to a site (defaults: [Sync] mode, 2.0s
    ship timeout, warm standby; failover as described above).
    Registers a boot hook, so the role (read back from the durable role
    file) survives crash/restart. [on_serving] runs each time this node
    assumes serving-primary duty — boot as primary, or promotion — and is
    where the caller starts its servers ({!Server.start_here}): servers
    must run only on the serving node. [cold] models a standby that
    stores but does not replay the shipped log; promotion then pays a
    replay scan at [replay_bytes_per_sec] (default 256 MiB/s), the knob
    behind benchmark B15's warm-vs-cold comparison. *)

val site : t -> Site.t
val peer : t -> string
val role : t -> role
val epoch : t -> int
(** Incremented durably at every promotion; stale-epoch ship traffic is
    rejected, which is how a deposed primary learns of its deposition. *)

val is_serving : t -> bool
(** Primary role with the gates open (rejoin check passed / promoted). *)

val shipping : t -> bool
(** The primary's link is up: shippers installed, peer synced or syncing. *)

val failovers : t -> int
val degrades : t -> int
val resyncs : t -> int
val ship_batches : t -> int

val applied_bytes : t -> int
(** Standby side: shipped bytes applied since the last snapshot install. *)

val last_promote_at : t -> float
(** Virtual time of the most recent promotion on this node (0 if none). *)
