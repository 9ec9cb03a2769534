(** Observability: a process-wide metrics registry plus a structured
    trace-event stream, both driven by the simulator's virtual clock.

    Everything here is disabled by default and zero-cost when disabled:
    [Metrics.inc]/[Metrics.observe]/[Trace.emit] return after one boolean
    test. A run that wants measurements brackets itself with [reset] and
    [disable]; tests that never touch this module pay nothing.

    The registry is global (like [Rrq_sim.Crashpoint]) because the
    instrumented call sites span every layer — threading a handle through
    Wal/Tm/Qm/Clerk constructors would distort the APIs for a purely
    diagnostic concern. *)

val enabled : unit -> bool
(** Is recording on? Call sites use this to skip argument computation that
    is itself costly (e.g. scanning queues for depth gauges). *)

val reset : ?trace_capacity:int -> unit -> unit
(** Clear all metrics and trace events, reset the trace clock to the
    constant-zero default, and enable recording. [trace_capacity] bounds
    the event ring buffer (default 65536); older events are dropped once
    it is full (see {!Trace.dropped}). *)

val disable : unit -> unit
(** Stop recording. Accumulated metrics and events remain readable. *)

(** Named counters, gauges and latency sample series. *)
module Metrics : sig
  val inc : ?by:int -> string -> unit
  (** Add [by] (default 1) to a counter, creating it at zero. *)

  val set_gauge : string -> float -> unit
  (** Set a gauge to its latest value. *)

  val observe : string -> float -> unit
  (** Append one sample to a series (commit latency, batch size, ...).
      Series render as histograms; they are kept append-only so that
      {!diff} can slice a run's samples out of a longer-lived registry. *)

  val counter : string -> int
  (** Current value; 0 if the counter was never incremented. *)

  val gauge : string -> float
  (** Current value; 0.0 if the gauge was never set. *)

  val sum_counters : prefix:string -> int
  (** Sum of every counter whose name starts with [prefix]. *)

  val sum_gauges : prefix:string -> float
  (** Sum of every gauge whose name starts with [prefix]. *)

  type snapshot = {
    s_counters : (string * int) list;
    s_gauges : (string * float) list;
    s_samples : (string * float array) list;
  }
  (** Immutable copy of the registry, each section sorted by name. *)

  val snapshot : unit -> snapshot

  val diff : before:snapshot -> after:snapshot -> snapshot
  (** Per-interval view: counters subtract, gauges keep [after]'s value,
      sample series keep only the samples recorded after [before]. *)

  val find_counter : snapshot -> string -> int
  (** 0 when absent. *)

  val find_gauge : snapshot -> string -> float
  (** 0.0 when absent. *)

  val histogram : snapshot -> string -> Rrq_util.Histogram.t
  (** The named sample series as a histogram (empty when absent). *)

  val to_text : snapshot -> string
  (** Human-readable dump: counters, gauges, then histogram summaries. *)

  val to_json : snapshot -> string
  (** Deterministic JSON object:
      [{"counters":{..},"gauges":{..},"histograms":{name:{count,mean,p50,
      p95,p99,max},..}}] with names sorted. *)
end

(** Typed trace events. One constructor per interesting state transition;
    the textual codec exists so dumps can be re-parsed by tools and by the
    codec round-trip test. *)
module Event : sig
  type t =
    | Enqueue of { qm : string; queue : string; eid : int64; txid : string }
    | Dequeue of { qm : string; queue : string; eid : int64; txid : string }
    | Read of { qm : string; queue : string; found : bool }
    | Error_spill of {
        qm : string;
        error_queue : string;
        eid : int64;
        code : string;
      }
    | Txn_begin of { tm : string; txid : string }
    | Txn_commit of { tm : string; txid : string }
    | Txn_abort of { tm : string; txid : string }
    | Txn_staged of { tm : string; txid : string }
        (** A parallel commit's staged record is durable (its votes may
            still be outstanding). *)
    | Txn_vote of { tm : string; txid : string; rm : string; yes : bool }
        (** A remote participant's vote reached the coordinator. *)
    | Txn_resolve of { tm : string; txid : string; commit : bool }
        (** Recovery resolved a staged transaction that had no decision
            record, after asking every participant. *)
    | Wal_append of { wal : string; lsn : int; bytes : int }
    | Wal_force of { wal : string; lsn : int }
    | Batch_seal of { wal : string; batch : int }
        (** A group-commit flush: [batch] committers covered by one sync. *)
    | Crashpoint_fired of { site : string; hit : int }
    | Client_fsm of {
        client : string;
        from_state : string;
        event : string;
        to_state : string;
      }
    | Clerk_send of { client : string; rid : string; eid : int64 }
    | Clerk_receive of { client : string; rid : string }
    | Server_exec of {
        server : string;
        queue : string;
        rid : string;
        txid : string;
      }
        (** A server dequeued request [rid] from [queue] and runs it in
            transaction [txid]; each stage of a multi-transaction request
            runs from its own queue. *)
    | Shard_forward of { node : string; owner : string; version : int }
        (** A shard repository received an operation it does not own under
            its current map and relayed it to [owner]; [version] is the
            {e requester's} map version (a lower number than the node's own
            means a stale clerk was redirected). *)
    | Shard_map_install of { node : string; version : int }
        (** A shard repository accepted shard-map [version]. *)

  val to_string : t -> string
  (** Compact single-line form: kind and fields joined with ['|'],
      field text escaped. *)

  val of_string : string -> t
  (** Inverse of [to_string]. @raise Failure on malformed input. *)

  val to_json_line : ts:float -> t -> string
  (** One JSON object (no trailing newline):
      [{"ts":..,"type":"..",...fields}]. *)
end

(** Observed lock-acquisition order, the runtime half of the R7
    lock-order check: Rrq_txn.Lock's grant and release hooks report which
    lock-manager {e instance} each transaction touches, in order, and the
    accumulated instance-order edges are compared against rrq_lint's
    static lock-order graph (observed ⊆ static) by bin/rrq_witness.
    Like everything here: no-ops when recording is off. *)
module Lock_order : sig
  val note_acquire : txid:string -> string -> unit
  (** A fresh grant of some key in the named instance class to [txid].
      Records an edge from every class the transaction already holds,
      or the self-edge on a within-class re-acquisition. *)

  val note_release_all : txid:string -> unit
  (** The transaction resolved; its held-class list is dropped.
      Accumulated edges remain. *)

  val edges : unit -> (string * string) list
  (** Distinct observed (from, to) instance-order edges, sorted. *)

  val clear : unit -> unit
  (** Drop held state and edges (also done by {!reset}). *)
end

(** Bounded ring buffer of timestamped events. *)
module Trace : sig
  val set_clock : (unit -> float) -> unit
  (** Timestamp source for subsequent [emit]s; the check/harness runners
      point this at their scheduler's virtual clock. [reset] restores the
      constant-zero default. *)

  val emit : Event.t -> unit
  (** Record an event (no-op when disabled). *)

  val length : unit -> int
  (** Events currently held (≤ capacity). *)

  val dropped : unit -> int
  (** Events evicted by ring wraparound since [reset]. *)

  val events : unit -> (float * Event.t) list
  (** Held events, oldest first. *)

  val dump_jsonl : unit -> string
  (** Held events as JSON-lines, oldest first, one event per line. *)
end
