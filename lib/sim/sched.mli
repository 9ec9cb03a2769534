(** Deterministic discrete-event scheduler with cooperative fibers.

    Fibers are lightweight processes implemented with OCaml effects. All
    blocking is explicit ([sleep], or a [suspend]-built primitive such as
    {!Chan} and {!Ivar}); there is no preemption, so a run is a deterministic
    function of the program and the RNG seeds it uses.

    Time is virtual: it advances only when every runnable fiber has blocked,
    jumping to the earliest pending timer. This lets failure experiments
    cover hours of simulated traffic in milliseconds of real time.

    Fibers belong to a group (we use one group per simulated node).
    {!kill_group} models a node crash: every fiber of the group is marked
    dead and will simply never run again — mirroring a process that
    disappears mid-instruction. Suspended continuations of dead fibers are
    dropped, so fiber code must not rely on [Fun.protect]-style cleanup for
    crash correctness (crash-safety must come from the WAL, as in a real
    system). *)

type t
(** A scheduler instance. *)

type fiber
(** Handle to a spawned fiber. *)

(** {1 Scheduling policy and decision trace}

    Every scheduling decision — which ready fiber continuation runs next,
    which timer fires, which fault an experiment injected — is recorded as a
    compact trace. Because fibers are cooperative and all other randomness
    draws from explicit seeds, a run is a pure function of (program, seeds,
    decision sequence): replaying a recorded trace through {!Replay}
    reproduces the run event-for-event. This is the substrate of the
    simulation-testing layer in [lib/check]. *)

type decision =
  | Pick of int  (** Chose the i-th entry (0 = oldest) of the ready set. *)
  | Timer_fired of int
      (** A timer (identified by its sequence no., assigned when it was
          armed) fired. Only timers that fire are recorded: a {!timeout}
          cancelled by an earlier {!wake} leaves no entry, though it still
          consumed its sequence number. *)
  | Fault of string  (** Externally injected fault, via {!note_fault}. *)

type policy =
  | Fifo  (** Historical behavior: always run the oldest ready entry. *)
  | Random_priority of int
      (** PCT-style randomized priorities (seeded): every ready entry gets a
          random priority at enqueue time and the highest runs first, so the
          same program explores a different interleaving per seed. *)
  | Replay of decision array
      (** Follow the picks of a recorded trace. Non-pick entries are
          informational and skipped; a divergent or exhausted trace degrades
          to FIFO rather than failing. *)

val create : ?policy:policy -> ?trace_limit:int -> unit -> t
(** Fresh scheduler at virtual time 0.0. [policy] defaults to [Fifo];
    [trace_limit] (default 1M) bounds how many decisions are retained for
    {!trace} — decisions past the limit still execute (and still show in
    {!trace_truncated} and the livelock diagnostics), they are just not
    replayable. A retained decision costs one byte for a FIFO pick or an
    in-order timer firing, a few for a wide pick or an out-of-order timer
    (about 1.3 bytes on average), held in 64 KiB chunks; [0] retains
    none. *)

val trace : t -> decision array
(** The decisions recorded so far, oldest first, with fault notes spliced in
    at the position they were injected. Feed to {!Replay} to reproduce the
    run, or serialize with {!trace_to_string}. *)

val trace_truncated : t -> bool
(** Whether the run outgrew [trace_limit] (the trace is then a prefix and no
    longer replayable). *)

val note_fault : t -> string -> unit
(** Record an injected fault (crash, partition, ...) in the decision trace,
    so failure schedules are visible in replays and diagnostics. *)

val decision_to_string : decision -> string
(** Compact form: ["p3"], ["t17"], ["f:crash backend"]. *)

val decision_of_string : string -> decision
(** Inverse of {!decision_to_string}.
    @raise Invalid_argument on malformed input. *)

val trace_to_string : decision array -> string
(** Semicolon-joined {!decision_to_string} forms (a copy-pastable trace). *)

val trace_of_string : string -> decision array

val now : t -> float
(** Current virtual time. *)

val spawn : t -> ?group:string -> name:string -> (unit -> unit) -> fiber
(** Register a fiber to start at the current virtual time. Usable both from
    outside [run] (to set up the initial processes) and from within a fiber
    (though {!fork} is more convenient there). *)

val run : ?max_steps:int -> t -> unit
(** Execute fibers until no fiber is runnable and no live foreground timer
    is pending: the run ends exactly when all real work is done. Background
    timers, and timeouts already cancelled by a {!wake}, do not keep it
    going.
    @raise Failure if more than [max_steps] events execute (default 50M),
    which indicates a livelock in the simulated program. The failure message
    names the live fibers and the last few scheduling decisions, so a
    simulated livelock is diagnosable from test output alone. *)

val kill : t -> fiber -> unit
(** Mark one fiber dead. It never runs again. *)

val kill_group : t -> string -> unit
(** Kill every live fiber in the group (node crash). *)

val alive : fiber -> bool
(** Whether the fiber has neither finished nor been killed. *)

val fiber_group : fiber -> string option

val live_fibers : t -> string list
(** Names of fibers still alive when [run] returned — useful to diagnose
    simulated deadlocks in tests. *)

val failures : t -> (string * exn) list
(** Fibers that died with an unhandled exception, with that exception.
    Tests assert this is empty. *)

val at : ?background:bool -> t -> float -> (unit -> unit) -> unit
(** [at t time f] runs the callback at absolute virtual [time] (or now, if
    the time has passed). The callback runs in scheduler context, not in a
    fiber: it must not block; typically it just wakes a waker or spawns.
    Background timers (default false) do not keep the simulation alive:
    {!run} stops when only background timers remain. Use {!timeout}, not
    [at], for a deadline that a waiter's wake-up can make moot. *)

val pending_timers : t -> int
(** Timers in the heap right now, foreground and background: those armed
    and neither fired nor cancelled. A diagnostic; with every timeout
    cancelled by the wake that beats it, this is bounded by live work. *)

(** {1 Primitives callable only from inside a fiber} *)

val clock : unit -> float
(** Current virtual time. *)

val sleep : float -> unit
(** Block the calling fiber for a virtual duration. *)

val sleep_background : float -> unit
(** Like {!sleep}, but does not keep the simulation alive: periodic daemons
    (janitors, resolvers, redelivery retries) use this so {!run} can end
    when all real work is done. *)

val yield : unit -> unit
(** Reschedule the calling fiber behind the current ready queue. *)

val fork : ?name:string -> (unit -> unit) -> fiber
(** Spawn a fiber in the caller's group. *)

val self : unit -> fiber
(** The calling fiber's handle. *)

val in_fiber : unit -> bool
(** Whether the caller is running inside a fiber. Blocking primitives are
    only legal when this is [true]; dual-use library code (e.g. the WAL
    group-commit force path) checks it to degrade to synchronous behavior
    outside the simulator. *)

(** {1 Building blocking primitives} *)

type 'a waker
(** One-shot resumption capability for a suspended fiber. *)

val wake : 'a waker -> 'a -> bool
(** Resume the suspended fiber with a value. Returns [false] if the waker
    was already used or the fiber has been killed — in which case the value
    is {e not} delivered (the caller may hand it to another waiter). The
    first call also cancels [w]'s {!timeout}, if it has one. *)

val waker_live : 'a waker -> bool
(** Whether [wake] could still deliver (unused and fiber alive). *)

val suspend : (t -> 'a waker -> unit) -> 'a
(** Block the calling fiber; the registration callback stores the waker
    wherever the wake-up will come from (a queue of waiters, a {!timeout},
    ...). Returns when some agent calls [wake]. *)

val timeout : 'a waker -> float -> (unit -> unit) -> unit
(** [timeout w d f] arms a foreground timer that runs [f] (in scheduler
    context) after virtual duration [d], unless [w] is woken first: the
    first {!wake} of [w] from anywhere else removes the timer from the heap
    at once, so it is neither run, recorded in the trace, nor keeps {!run}
    alive. [f] typically wakes [w] with a timeout value and, if that
    [wake] returns [true], drops [w] from the queue it waits in. Call it
    from [suspend]'s registration callback.
    @raise Invalid_argument if [w] was already woken or already has a
    timeout. *)
