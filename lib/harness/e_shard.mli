(** Experiment B13: sharded multi-repository scale-out ({!Rrq_core.Shard})
    — a fixed clerk load (16 clients whose routing keys hash evenly)
    against 1, 2 and 4 shard repositories, crossed with the reply-queue
    placement: "co-located" pins each client's reply queue onto its
    request shard (conversation affinity — near-linear scaling),
    "scattered" puts every reply queue on a foreign shard so each request
    finishes with a cross-shard 2PC (pricing its two extra log forces).
    Every shard disk charges a per-flush [sync_latency], so commits/s
    measures how shards multiply log-force bandwidth; the speedup column
    is relative to the shared 1-shard row. *)

type row = {
  shards : int;  (** Shard repositories in the map. *)
  placement : string;
      (** "(single)", "co-located" (replies pinned to the request shard)
          or "scattered" (every reply on a foreign shard). *)
  clients : int;  (** Concurrent clerk clients (fixed across rows). *)
  requests : int;  (** Total conversation turns completed. *)
  forwards : int;  (** Misroute relays observed (0: the map is exact). *)
  commits : int;  (** Committed transactions summed over shards. *)
  elapsed_s : float;  (** Virtual seconds the load took. *)
  commits_per_s : float;  (** [commits /. elapsed_s]. *)
  speedup : float;  (** [commits_per_s] relative to the 1-shard row. *)
}

val run : ?clients:int -> ?reqs:int -> ?seed:int -> unit -> row list
val table : row list -> Rrq_util.Table.t
