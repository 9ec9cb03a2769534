module Disk = Rrq_storage.Disk
module Sched = Rrq_sim.Sched
module Cond = Rrq_sim.Cond
module Codec = Rrq_util.Codec

type policy =
  | Immediate
  | Adaptive of { max_delay : float; max_batch : int }

(* EWMA weight for inter-arrival samples. High enough to track a load
   shift within a handful of commits, low enough that one straggler does
   not flip the policy. *)
let alpha = 0.3

type t = {
  wal : Wal.t;
  disk : Disk.t;
  pol : policy;
  mutable leading : bool; (* a leader is inside its batch window / sync *)
  mutable waiters : (int * bool Sched.waker) list; (* parked followers *)
  full : Cond.t; (* signalled when the batch reaches the target *)
  mutable n_forces : int;
  mutable n_syncs : int;
  (* Adaptive state: estimated commit inter-arrival (virtual seconds;
     0 until the first pair of arrivals) and the batch-size target the
     current leader computed from it. *)
  mutable ewma : float;
  mutable last_arrival : float;
  mutable target : int;
  (* Seal-reason counters (also exported via [Rrq_obs.Metrics]). *)
  mutable s_full : int;
  mutable s_timeout : int;
  mutable s_idle : int;
  mutable s_rate : int;
  mutable s_immediate : int;
  (* Log shipping (primary-backup replication). While a shipper is
     installed every appended record is retained as (lsn, payload) until a
     ship round sends it; [shipped_lsn] is the replication analogue of the
     durable LSN. In sync mode [force] will not return to a committer until
     the ship watermark covers its records. *)
  mutable shipper : ((int * string) list -> unit) option;
  mutable ship_sync : bool;
  mutable retained : (int * string) list; (* newest first *)
  mutable shipped_lsn : int;
  mutable ship_leading : bool;
  mutable ship_waiters : (int * bool Sched.waker) list;
  mutable n_ships : int;
}

let create ?(policy = Immediate) wal =
  {
    wal;
    disk = Wal.disk wal;
    pol = policy;
    leading = false;
    waiters = [];
    full = Cond.create ();
    n_forces = 0;
    n_syncs = 0;
    ewma = 0.0;
    last_arrival = -1.0;
    target = 1;
    s_full = 0;
    s_timeout = 0;
    s_idle = 0;
    s_rate = 0;
    s_immediate = 0;
    shipper = None;
    ship_sync = true;
    retained = [];
    shipped_lsn = 0;
    ship_leading = false;
    ship_waiters = [];
    n_ships = 0;
  }

let policy t = t.pol
let wal t = t.wal
let forces t = t.n_forces
let syncs t = t.n_syncs

let seal_counts t =
  [
    ("full", t.s_full);
    ("timeout", t.s_timeout);
    ("idle", t.s_idle);
    ("rate", t.s_rate);
    ("immediate", t.s_immediate);
  ]

let retain t payload =
  t.retained <- (Wal.appended_lsn t.wal, payload) :: t.retained

let append t payload =
  Wal.append t.wal payload;
  if t.shipper <> None then retain t payload

let append_enc t e =
  (* The zero-copy path must materialize the record when a shipper needs a
     copy to send; without one it stays zero-copy. *)
  if t.shipper <> None then begin
    let payload = Codec.to_string e in
    Wal.append_enc t.wal e;
    retain t payload
  end
  else Wal.append_enc t.wal e

(* One physical flush, charged against the disk's device model when we can
   sleep (i.e. inside a fiber): the device serves one flush at a time, so
   concurrent immediate-mode committers queue on it. *)
let do_sync t =
  (if Disk.sync_latency t.disk > 0.0 && Sched.in_fiber () then
     let wait = Disk.reserve_sync t.disk ~now:(Sched.clock ()) in
     if wait > 0.0 then Sched.sleep wait);
  Wal.sync t.wal;
  t.n_syncs <- t.n_syncs + 1;
  if Rrq_obs.enabled () then Rrq_obs.Metrics.inc ("gc.syncs:" ^ Wal.name t.wal)

(* Wake every parked follower the last sync covered. After a successful
   sync the durable LSN equals the appended LSN, which covers everyone who
   parked before it; if the disk died instead, wake everybody — their
   commits are not durable, but neither would they have been under the
   historical per-commit force, whose failure is equally silent. *)
let wake_covered t =
  let durable = Wal.durable_lsn t.wal in
  let dead = Disk.is_dead t.disk in
  let ready, parked =
    List.partition (fun (lsn, _) -> dead || lsn <= durable) t.waiters
  in
  t.waiters <- parked;
  List.iter (fun (_, w) -> ignore (Sched.wake w true)) (List.rev ready);
  List.length ready

(* ---- log shipping ---------------------------------------------------- *)

let set_shipper ?(sync = true) t f =
  t.shipper <- Some f;
  t.ship_sync <- sync;
  (* The installer is responsible for bringing the peer up to date first
     (snapshot install); shipping starts from the current durable tail. *)
  t.retained <- [];
  t.shipped_lsn <- Wal.durable_lsn t.wal

(* Wake every parked ship waiter, covered or not: a waiter whose lsn the
   finished round did not cover must get a chance to elect itself the next
   leader (its record arrived after the leader snapshotted the durable
   horizon, so no running leader will ever cover it). Woken fibers re-enter
   [ensure_shipped], which returns when covered and leads otherwise. *)
let wake_shipped t =
  let ws = t.ship_waiters in
  t.ship_waiters <- [];
  List.iter (fun (_, w) -> ignore (Sched.wake w true)) (List.rev ws)

let clear_shipper t =
  t.shipper <- None;
  t.retained <- [];
  wake_shipped t

let shipping t = t.shipper <> None
let shipped_lsn t = t.shipped_lsn
let pending_ship t = List.length t.retained
let ship_in_flight t = t.ship_leading
let ships t = t.n_ships

(* Ship every retained record the log has made durable, leader/follower
   style: one fiber drains and sends the batch while others needing
   coverage park; the leader's watermark advance covers them. The shipper
   callback may block (it does an RPC); it must not raise — connection
   management (degrade, resync) is its owner's job. *)
let rec ensure_shipped t lsn =
  (* Only durable records ship (the backup must never be ahead of the
     primary's log); if the disk died the sync never covered [lsn] and the
     node is about to be declared crashed — bail rather than spin. *)
  let lsn = min lsn (Wal.durable_lsn t.wal) in
  if t.shipper <> None && lsn > t.shipped_lsn then begin
    if t.ship_leading then begin
      ignore
        (Sched.suspend (fun _ w -> t.ship_waiters <- (lsn, w) :: t.ship_waiters));
      ensure_shipped t lsn
    end
    else begin
      t.ship_leading <- true;
      let durable = Wal.durable_lsn t.wal in
      let batch, rest = List.partition (fun (l, _) -> l <= durable) t.retained in
      t.retained <- rest;
      let batch = List.sort compare batch in
      Fun.protect
        ~finally:(fun () ->
          t.ship_leading <- false;
          wake_shipped t)
        (fun () ->
          (match t.shipper with
          | Some ship when batch <> [] ->
            ship batch;
            t.n_ships <- t.n_ships + 1
          | _ -> ());
          (* The shipper may have been cleared (degrade) mid-send; only a
             still-connected stream advances the watermark. *)
          if t.shipper <> None then t.shipped_lsn <- max t.shipped_lsn durable);
      ensure_shipped t lsn
    end
  end

(* One asynchronous ship round covering everything durable so far — the
   lagged-shipping mode's periodic drain. *)
let ship_now t = ensure_shipped t (Wal.durable_lsn t.wal)

let reason_name = function
  | `Full -> "full"
  | `Timeout -> "timeout"
  | `Idle -> "idle"
  | `Rate -> "rate"
  | `Immediate -> "immediate"

(* A sealed batch = one physical sync amortised over [n] committers. *)
let observe_batch t reason n =
  (match reason with
  | `Full -> t.s_full <- t.s_full + 1
  | `Timeout -> t.s_timeout <- t.s_timeout + 1
  | `Idle -> t.s_idle <- t.s_idle + 1
  | `Rate -> t.s_rate <- t.s_rate + 1
  | `Immediate -> t.s_immediate <- t.s_immediate + 1);
  if Rrq_obs.enabled () then begin
    let wal = Wal.name t.wal in
    let reason = reason_name reason in
    Rrq_obs.Metrics.inc ("gc.seal." ^ reason ^ ":" ^ wal);
    Rrq_obs.Metrics.observe ("gc.batch:" ^ wal) (float_of_int n);
    Rrq_obs.Trace.emit (Rrq_obs.Event.Batch_seal { wal; batch = n; reason })
  end

(* Feed one commit arrival into the inter-arrival estimate. Only the
   virtual clock is sampled, and only inside a fiber — outside the
   simulator there is no meaningful arrival spacing (and rrq_lint R2
   forbids ambient time anyway). Same-instant arrivals clamp to a tiny
   positive dt: they mean "infinite rate", not "no estimate". *)
let sample_arrival t =
  let now = Sched.clock () in
  if t.last_arrival >= 0.0 then begin
    let dt = Float.max (now -. t.last_arrival) 1e-9 in
    t.ewma <-
      (if t.ewma <= 0.0 then dt
       else (alpha *. dt) +. ((1.0 -. alpha) *. t.ewma))
  end;
  t.last_arrival <- now

(* Park the caller until a leader's sync covers [lsn]. Boarding may seal
   the batch early when it reaches the leader's target. *)
let board t lsn =
  if List.length t.waiters + 2 >= t.target then Cond.signal t.full;
  ignore (Sched.suspend (fun _ w -> t.waiters <- (lsn, w) :: t.waiters))

(* Adaptive sealing: decide how long (if at all) this leader should hold
   the batch open, wait accordingly, and report why the batch sealed.

   The estimate [expected = sync_latency / ewma] is the number of commits
   that would arrive while one flush occupies the device. Below ~1.5 the
   device is keeping up — batching would only add latency, so seal
   immediately ([`Idle]; this is what restores the 1-server Immediate
   throughput that a fixed window gives away). Above it, the device is
   the bottleneck: hold the batch for [target = min expected max_batch]
   boarders, with a window bounded by both [max_delay] and the time the
   estimate says those boarders need to show up. *)
let adaptive_seal t ~max_delay ~max_batch =
  let lat = Disk.sync_latency t.disk in
  let expected = if t.ewma > 0.0 then lat /. t.ewma else 0.0 in
  if expected < 1.5 then begin
    t.target <- 1;
    `Idle
  end
  else begin
    let target = min max_batch (max 2 (int_of_float expected)) in
    t.target <- target;
    let boarded = List.length t.waiters + 1 in
    if boarded >= target then (if boarded >= max_batch then `Full else `Rate)
    else begin
      let window =
        Float.min max_delay (float_of_int (target - boarded) *. t.ewma *. 2.0)
      in
      if window > 0.0 && Cond.wait_timeout t.full window then begin
        if List.length t.waiters + 1 >= max_batch then `Full else `Rate
      end
      else `Timeout
    end
  end

let force t =
  (match t.pol with
  | Adaptive _ when Sched.in_fiber () -> sample_arrival t
  | _ -> ());
  let lsn = Wal.appended_lsn t.wal in
  if lsn > Wal.durable_lsn t.wal && not (Disk.is_dead t.disk) then begin
    t.n_forces <- t.n_forces + 1;
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.inc ("gc.forces:" ^ Wal.name t.wal);
    match t.pol with
    | Adaptive { max_delay; max_batch } when Sched.in_fiber () ->
      if t.leading then board t lsn
      else begin
        (* Leader even when sealing immediately: committers arriving while
           our sync occupies the device park as followers and are covered
           by it (the sync flushes everything appended before it runs), so
           an idle-mode Adaptive log never does worse than Immediate and
           picks up piggybackers for free. *)
        t.leading <- true;
        let reason = adaptive_seal t ~max_delay ~max_batch in
        do_sync t;
        t.leading <- false;
        let covered = wake_covered t in
        observe_batch t reason (covered + 1)
      end
    | Immediate | Adaptive _ ->
      (* One direct sync: Immediate always, Adaptive outside a fiber,
         where nothing can park. *)
      do_sync t;
      observe_batch t `Immediate 1
  end;
  (* Synchronous shipping gates the commit exactly like durability does:
     a committer's records must be on the backup before [force] returns.
     This also covers the follower/skip cases above — a fiber whose
     records were already durable (so the body never ran) still must not
     proceed past an unshipped suffix. *)
  if t.ship_sync && t.shipper <> None && Sched.in_fiber () then
    ensure_shipped t lsn

let append_force t payload =
  append t payload;
  force t
