(** Checkable scenarios: closed simulated worlds that run one fault plan to
    quiescence and audit themselves through the {!Audit} registry.

    Every scenario is one {!topology}, turned into a world the same way:
    its {!World} description (the repositories, one per shard, each a
    single site or an HA pair; shard routing; the workload's queues and
    servers) booted by {!World.build} on a network with the topology's drop
    rate, a mid-run map change when the world has a shard map, and clerks
    that send tagged requests and count every reply they receive per rid.
    The workload is one of two:
    - one-transaction requests to a 2-thread counting server on the serving
      node, audited by exactly-once and [conservation:exec-total] (the
      counting handler's summed ledger);
    - the §6 funds-transfer chain ({!Rrq_core.Pipeline}) over three
      repositories, debit, credit and clearing, audited by
      [conservation:money] (source plus destination stays 1000),
      [conservation:credited] (100 per transfer) and
      [conservation:cleared] (one per transfer).

    Every world is also audited by reply-delivery over the authoritative
    repositories — a promoted standby, else the primary — by the clerks'
    reply-matching (each Receive got the reply to the rid it awaited),
    and by queue-integrity and no-in-doubt over every site. *)

type outcome = {
  findings : Audit.finding list;  (** Empty iff every auditor passed. *)
  trace : Rrq_sim.Sched.decision array;
      (** The full scheduling-decision trace of the run (replayable when
          [trace_truncated] is false). *)
  trace_truncated : bool;
  requests : int;  (** Requests the clients attempted. *)
  replies : int;
      (** Requests whose reply reached their client (the blind client
          skips a stray, an older request's reply seen again). *)
  virtual_time : float;  (** Virtual time at quiescence. *)
  failovers : int;  (** Standby promotions across every HA pair. *)
  totals : (string * int) list;
      (** The audited totals at quiescence, by name: ["exec-total"] for a
          request world; ["src"], ["dst"] and ["cleared"] for a chain. *)
}

type topology
(** The closed world a scenario builds: its {!World.t} (repositories,
    the optional shard map with the designed tag-stripping forwarder, the
    workload's queues and servers), the shard map's mid-run change, the
    workload (requests or a transfer chain), the network's message drop
    rate, the client count, requests per client and client-id prefix, and
    whether the client is the designed blind re-sender. *)

type t = {
  name : string;
  profile : Plan.profile;
      (** Fault space the explorer draws plans from: crashes of any
          repository primary, cuts of the client's link to the first
          repository and of each link between neighbouring repositories. *)
  probe : Plan.t;
      (** The plan crash sweeps probe and re-run: fault-free, or with an
          HA pair a kill of its primary at t=2, so the failover path is
          reached. *)
  topology : topology;
}

val failed : outcome -> bool

val run : ?policy:Rrq_sim.Sched.policy -> t -> Plan.t -> outcome
(** Run one plan. [policy] overrides the plan's scheduling policy (used to
    re-run a schedule under [Replay] of a recorded trace). *)

val quickstart : t
(** The paper's System Model on one backend site: 2 correct clerks x 2
    tagged requests. Must satisfy every auditor under {e any} plan — a
    finding here is a protocol bug. *)

val quickstart_lossy : t
(** {!quickstart} with 4 clerks x 5 requests on a network that drops each
    message with probability 0.08: the clerk's retries and the QM's
    tag-based duplicate suppression must still deliver every request
    exactly once. *)

val quickstart_large : t
(** {!quickstart} with 2 clerks x 4 requests whose bodies are 16 KiB, so
    the replies are too: each body reaches the log by reference (its
    frame's pieces), and the backend's node log crosses a checkpoint
    whose snapshot holds the Rereceive copies by reference. Must satisfy
    every auditor under any plan. *)

val ha : t
(** The HA pair ({!Rrq_core.Ha}): a primary and a warm standby joined by
    synchronous WAL shipping, 2 clerks (with backup rotation) x 2
    requests. The plan space kills the primary and partitions it from the
    client; every auditor must hold through any failover the plan
    provokes. *)

val ha_lagged : t
(** The deliberately lag-buggy variant: shipping drains only once per
    second ([Lagged 1.0]), so replies are speculative. Fault-free it
    passes; a primary kill inside the lag window loses or duplicates a
    conversation, which the explorer must find and ddmin must shrink. *)

val sharded : t
(** Sharded multi-repository scale-out ({!Rrq_core.Shard}): three shard
    sites, 3 shard-aware clerks x 2 requests. Map v1 pins every client's
    request key onto shard0; an admin fiber installs v2 (pure hash
    placement) at t=1, so ownership of every key moves mid-run — stale
    clients get forwarded and piggyback-refreshed, retried operations at
    new owners trigger the registration pull, and servers finish requests
    with cross-shard 2PC reply enqueues. The plan space crashes any shard
    and partitions client/shard and shard/shard pairs (including
    mid-2PC). *)

val sharded_buggy : t
(** The designed misroute-during-map-change anomaly: forwarders strip
    registration tags, so a retried operation that crosses the map change
    through a stale pin executes a second untagged copy at the new owner.
    Passes fault-free; the explorer must find the duplicate and ddmin must
    shrink the plan. *)

val sharded_unfenced : t
(** The designed fence anomaly: {!sharded_slow} with clerks that never
    fence their lazy Receive before the next Send ([Clerk.connect]'s
    [unfenced_bug]), on a map that pins reply queues off their clients'
    request shards. Passes fault-free; a crash of a reply shard after the
    next Send was acknowledged gives a received reply back, which
    reply-delivery must catch and ddmin must shrink. *)

val sharded_slow : t
(** {!sharded} with a server that takes a second over each request: the
    fenced control for {!sharded_unfenced}'s plans (not in {!all}). *)

val sharded_ha : t
(** {!sharded} with shard0 a synchronous HA pair (primary [shard0],
    standby [standby0], listed as shard0's backup candidate in the map).
    The plan space kills the pair primary and the plain shards: failover
    of one shard must compose with forwarding, the map change and
    cross-shard 2PC. *)

val buggy_clerk : t
(** A deliberately broken client on the single-site world: untagged Sends
    and a blind re-Send on reply timeout with no rid check. Passes
    fault-free; duplicates requests under crashes and partitions that
    overlap its active window. The explorer must find (and the shrinker
    minimize) this violation. *)

val chain : t
(** The paper's multi-transaction request (§6, fig. 6): 4 clerks each send
    one transfer of 100 into a three-stage pipeline — debit [acct:src] on
    [bankA] (opened at 1000), credit [acct:dst] on [bankB], count it on
    [clearing] — each stage one transaction that moves the request to the
    next stage's queue. The plan space crashes any of the three and cuts
    client-bankA, bankA-bankB and bankB-clearing; no failure may break a
    chain. *)

val all : t list
val by_name : string -> t option

(** {1 Crash-site sweeps}

    Library code marks named crash sites ({!Rrq_sim.Crashpoint}) at WAL
    sync boundaries, 2PC decision points, clerk/server steps, replication
    steps and shard routing. A sweep probes a scenario's [probe] plan to
    enumerate the sites, then re-runs it once per (site, hit) with a
    one-shot kill armed there ({!sweep} does both). *)

val crash_sites : t -> (string * int) list
(** Every crash site the [probe] run reaches, with hit counts, sorted. *)

val crash_at :
  site:string -> hit:int -> ?victim:string -> recover_after:float -> t -> outcome
(** Re-run the [probe] plan with a one-shot kill of [victim] armed at the
    [hit]-th reach of [site]: the victim's disk freezes immediately, the
    node crashes and restarts [recover_after] seconds later. The site may
    be reached on another node — killing the primary at [ship.applied]
    fires from the standby's apply fiber. [victim] defaults to the node
    named in the site string (WAL, TM and routing sites embed it), else
    the first repository's primary. *)

val crash_fired : outcome -> site:string -> bool
(** Whether the run reached the armed (site, hit): its [Fault] note
    (["crashpoint <site> kills <victim>"], or ["... finds down ..."] when
    the victim was already dead) is in the trace. *)

type crash = {
  site : string;
  hit : int;
  fired : bool;  (** {!crash_fired} of the re-run. *)
  findings : Audit.finding list;  (** The re-run's audit; empty iff clean. *)
}

val sweep :
  ?only:(string -> bool) ->
  ?victim:string ->
  recover_after:float ->
  t ->
  (string * int) list * crash list
(** {!crash_sites} filtered by [only] (default: every site), then
    {!crash_at} once per (site, hit) of those sites, in order. Returns the
    swept sites with their hit counts and one [crash] per re-run. *)

(** {1 Recorded runs}

    A run wrapped in an [Rrq_obs] session: metrics and the trace-event
    stream are captured. On a request world's plan with no crash faults,
    {!Audit.exactly_once_trace} also re-verifies exactly-once from the
    events alone (a chain executes each request once per stage, which that
    auditor would read as duplicates). A crash can kill a fiber that is parked between its
    durable force and its commit event — a group-commit follower waiting
    for its leader's wake-up, or a committer in the Sync-mode ship wait —
    which the trace cannot tell from a lost commit, so plans with crashes
    get only the scenario's own auditors. *)

type recorded = {
  rec_outcome : outcome;
      (** The scenario's outcome, with the trace auditor's findings
          appended when it applies. *)
  rec_metrics : Rrq_obs.Metrics.snapshot;  (** Metrics at quiescence. *)
  rec_trace : string;  (** The JSON-lines trace dump. *)
}

val run_recorded :
  ?policy:Rrq_sim.Sched.policy -> ?trace_capacity:int -> t -> Plan.t -> recorded
(** Run one plan under a fresh observability session ([trace_capacity]
    defaults to 262144 events — quickstart runs use a few thousand).
    Recording is disabled again on return. *)
