(** Experiments on multi-transaction requests (paper §6).

    {b E2 — unbreakable chains}: the checker's three-site funds-transfer
    scenario (debit / credit / clearinghouse-log) is run fault-free and
    with a crash of each site in turn; every transfer must complete
    exactly once and money must be conserved.

    {b B6 — chain vs. one long transaction}: the same business transaction
    executed as a 3-stage chain versus one long transaction, under
    contention on a small hot account set — the lock-contention argument
    the paper gives for splitting requests (§6).

    {b B8 — request-level serializability via lock inheritance}: a
    single-site chain with and without lock inheritance, audited by a
    concurrent invariant reader; inheritance eliminates the
    between-transactions anomalies at a throughput cost (§6). *)

val run_crash_matrix : unit -> (string * Rrq_check.Scenario.outcome) list
(** The {!Rrq_check.Scenario.chain} scenario fault-free (["none"]) and
    with each of its three sites crashed at t=0.1, mid-chain, for 3 s, by
    crashed site. *)

val crash_table : (string * Rrq_check.Scenario.outcome) list -> Rrq_util.Table.t

type contention_row = {
  design : string;
  stage_work : float;
  clients : int;
  accounts : int;
  elapsed : float;
  throughput : float;  (** Transfers per simulated second. *)
  p95_latency : float;
}

val run_contention :
  ?clients:int -> ?per_client:int -> ?accounts:int -> ?stage_work:float ->
  unit -> contention_row list
val contention_table : contention_row list -> Rrq_util.Table.t

type serial_row = {
  mode : string;
  s_transfers : int;
  audits : int;
  anomalies : int;  (** Invariant violations observed by the auditor. *)
  s_elapsed : float;
}

val run_serializability : ?transfers:int -> unit -> serial_row list
val serializability_table : serial_row list -> Rrq_util.Table.t
