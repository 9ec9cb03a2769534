(** Scenario driver shared by the experiment harness and the simulation
    tester: builds a world, runs it to quiescence, fails loudly if any fiber
    died or the driver deadlocked. *)

exception Scenario_failure of string
(** A fiber raised, or the driver never completed. *)

val run_scenario_traced :
  ?policy:Rrq_sim.Sched.policy -> ?trace_limit:int ->
  (Rrq_sim.Sched.t -> unit -> 'a) -> 'a * Rrq_sim.Sched.t
(** [f sched] runs during setup (outside any fiber) and returns the driver,
    which then runs as the root fiber. Returns the driver's result and the
    quiesced scheduler (for its decision trace).
    @raise Scenario_failure *)

val run_scenario : ?policy:Rrq_sim.Sched.policy -> (Rrq_sim.Sched.t -> unit -> 'a) -> 'a
(** {!run_scenario_traced} for the driver's result alone; the scheduler is
    dropped, so it records no decision trace. *)

val await : ?timeout:float -> ?poll:float -> (unit -> bool) -> bool
(** Poll a predicate from inside a fiber until it holds (default poll 0.1,
    timeout 300 virtual seconds); returns whether it held. *)
