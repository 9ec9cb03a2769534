(** Named crash sites (FoundationDB-BUGGIFY style).

    Recovery-relevant boundaries in the library — WAL sync boundaries, 2PC
    decision points, clerk and server protocol steps — are marked once with
    {!reach}. A crash-point enumerator (see [Rrq_check.Sweep]) then probes a
    clean run to learn which sites exist and how often each is hit, and
    re-runs the scenario with a crash armed at every (site, hit) pair —
    systematic crash coverage that follows the code instead of hand-written
    sweep loops.

    The registry is process-global and {b disabled by default}: outside a
    sweep, [reach] is a single branch on a false flag. Scenarios under the
    deterministic scheduler run one at a time, so global state is safe. *)

exception Crash
(** Raised by crash actions (via {!crash}) to unwind the fiber that reached
    the armed site, instead of letting it run on to its next suspension
    point with a dead disk. The scheduler treats a fiber that dies with
    [Crash] as killed, not as failed ({!Sched.failures} stays empty), and
    [Rrq_util.Swallow] treats it as fatal, so no [Swallow]-disciplined
    handler can convert an injected crash into a wrong protocol outcome
    (rrq_lint rule R1 forbids the undisciplined handlers that could). *)

val crash : unit -> 'a
(** [raise Crash], for use at the end of an armed crash action that runs in
    the reaching fiber (freeze durability first, e.g. [Disk.kill_now]). *)

val reach : string -> unit
(** Mark that execution passed the named crash site. No-op unless the
    registry is enabled; when enabled, counts the hit and fires the armed
    crash action if this is exactly the armed (site, hit). Site names should
    be stable and include the component instance (e.g.
    ["wal.sync:node.log"]), so multi-node scenarios stay distinguishable. *)

val reset : unit -> unit
(** Enable the registry and clear all counts and any armed action. Call at
    the start of every probe or sweep run. *)

val disable : unit -> unit
(** Turn the registry back off (and clear it). Always pair with {!reset} —
    e.g. via [Fun.protect] — so unrelated tests are unaffected. *)

val enabled : unit -> bool

val arm : site:string -> hit:int -> (unit -> unit) -> unit
(** Arm a one-shot crash action to fire when [site] is reached for the
    [hit]-th time ([hit] counts from 1) after the enclosing {!reset}. The
    action runs synchronously at the site, in whatever fiber reached it: it
    must not block, and it should freeze durability first (e.g.
    [Disk.kill_now]) if it models a crash, because the reaching fiber keeps
    executing until its next suspension point.
    @raise Invalid_argument if the registry is disabled or [hit < 1]. *)

val armed : unit -> (string * int) option
(** The armed (site, hit), if the action has not fired yet. *)

val hits : string -> int
(** Hits recorded for a site since the last {!reset} (0 if never reached). *)

val hit_counts : unit -> (string * int) list
(** All sites reached since the last {!reset}, with hit counts, sorted. *)
