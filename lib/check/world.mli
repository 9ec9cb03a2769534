(** The one world builder: the paper's system model (§2–§3) — request
    queues on repositories, servers dequeuing from them, optional shard
    routing — described by one value and built by one function. The
    checker's scenarios, the benchmark sections and the test rigs all build
    their worlds here; the caller keeps the network ([Net.create]) and makes
    its own client nodes after {!build}. *)

type pair = {
  primary : string;
  standby : string;
  mode : Rrq_core.Ha.mode;
  sync_latency : float;  (** Seconds one flush occupies either device. *)
  cold : float option;
      (** [Some r]: a cold standby that replays its shipped log at [r]
          bytes/s when it promotes; [None]: a warm standby. *)
}
(** An HA primary and its standby, joined by WAL shipping. *)

type repository = Single of string | Pair of pair

type shards = {
  map : Rrq_core.Shard.map;  (** Installed on every site at attach. *)
  untag_forward_bug : bool;
      (** The checker's designed anomaly: routers strip registration tags
          when relaying a misroute ({!Rrq_core.Shard.attach}). *)
}

type server = {
  queue : string;
  threads : int;
  handler : Rrq_core.Server.handler;
}

type t = {
  repos : repository list;  (** One per shard; the first is the entry. *)
  shards : shards option;  (** A shard router on every site when set. *)
  queues : (string * Rrq_qm.Qm.attrs) list;  (** Created on every site. *)
  stale_timeout : float;  (** Every site's janitor threshold. *)
  sync_latency : float;  (** Seconds one flush occupies a single's device. *)
  server : server option;
      (** Started on every single site, and on a pair's serving node each
          time it assumes that duty. *)
}

val single : string -> t
(** One repository of that name with a ["req"] queue, a 3 s stale
    timeout, instant flushes, no shards and no server. *)

val counting_server : int -> server option
(** That many threads serving ["req"] with {!Audit.counting_handler}. *)

type world

val build : Rrq_net.Net.t -> t -> world
(** Boot the repositories in list order. For each: its node(s) and
    site(s), then the HA roles (primary first) and servers, then the shard
    router. [Net.make_node] splits the network's random stream, so the
    order is part of the world's behaviour. *)

val site : world -> string -> Rrq_core.Site.t
(** The site on that node. @raise Not_found *)

val sites : world -> (string * Rrq_core.Site.t) list
(** Every site by node name, in build order. *)

val authoritative : world -> Rrq_core.Site.t list
(** One site per repository, in list order: a pair's promoted standby if
    it serves, else its primary. A warm standby holds replicated copies by
    design, so only these count executions and replies. *)

val ha : world -> string -> Rrq_core.Ha.t
(** The HA role on a pair's node. @raise Not_found *)

val failovers : world -> int
(** Standby promotions so far, over every pair. *)

val ready : world -> bool
(** Every pair's primary is serving and shipping to its standby. *)

val servers : world -> Rrq_core.Server.t list
(** Every server started so far, in start order. *)
