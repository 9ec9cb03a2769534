module Disk = Rrq_storage.Disk
module Sched = Rrq_sim.Sched
module Cond = Rrq_sim.Cond

(* The batch bounds every log shares: a leader holds a batch open for at
   most half a millisecond and seals it at 64 committers. *)
let max_delay = 0.0005
let max_batch = 64

(* Ship rounds a log keeps in flight at once. *)
let max_rounds = 2

(* EWMA weight for inter-arrival samples. High enough to track a load
   shift within a handful of commits, low enough that one straggler does
   not flip the seal decision. *)
let alpha = 0.3

type t = {
  wal : Wal.t;
  disk : Disk.t;
  mutable leading : bool; (* a leader is inside its batch window / sync *)
  mutable waiters : (int * bool Sched.waker) list; (* parked followers *)
  full : Cond.t; (* signalled when the batch reaches the target *)
  mutable n_forces : int;
  mutable n_syncs : int;
  (* Sealing state: estimated commit inter-arrival (virtual seconds;
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
  (* Log shipping (primary-backup replication). While a shipper is
     installed every appended record is retained as (lsn, payload) until a
     ship round takes it. Rounds overlap: each covers the records appended
     since the previous one ([sent_lsn]), and [shipped_lsn] — the
     replication analogue of the durable LSN — advances only over a
     contiguous prefix of acknowledged rounds. In sync mode [force] will not
     return to a committer until both watermarks cover its records. *)
  mutable shipper : ((int * string) list -> unit) option;
  mutable ship_sync : bool;
  mutable syncing : bool; (* the leader's sync is under way *)
  mutable retained : (int * string) list; (* newest first *)
  mutable sent_lsn : int;
  mutable shipped_lsn : int;
  mutable rounds : round list; (* this shipper's unacknowledged suffix, oldest first *)
  mutable starting : bool; (* a round's fiber is yet to take its records *)
  mutable in_flight : int; (* rounds whose fiber is running *)
  mutable ship_waiters : (int * unit Sched.waker) list;
  mutable n_ships : int;
}

and round = { hi : int; mutable acked : bool }

let create wal =
  {
    wal;
    disk = Wal.disk wal;
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
    shipper = None;
    ship_sync = true;
    syncing = false;
    retained = [];
    sent_lsn = 0;
    shipped_lsn = 0;
    rounds = [];
    starting = false;
    in_flight = 0;
    ship_waiters = [];
    n_ships = 0;
  }

let forces t = t.n_forces
let syncs t = t.n_syncs

let seal_counts t =
  [
    ("full", t.s_full);
    ("timeout", t.s_timeout);
    ("idle", t.s_idle);
    ("rate", t.s_rate);
  ]

let retain t frame =
  t.retained <- (Wal.appended_lsn t.wal, frame) :: t.retained

(* A shipper retains the frame string the log holds: each record's bytes
   are copied once, into its frame, whether or not they are shipped. *)
let append_frame t frame =
  Wal.append_frame t.wal frame;
  if t.shipper <> None then retain t frame

let append t payload = append_frame t (Wal.frame payload)

let append_enc t e =
  let frame = Wal.append_enc t.wal e in
  if t.shipper <> None then retain t frame

(* One physical flush, charged against the disk's device model when we can
   sleep (i.e. inside a fiber): the device serves one flush at a time, so
   the leaders of every log on one disk queue on it. *)
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
   commits are not durable, but a leader's own failed sync is equally
   silent, and the node is about to be declared crashed. *)
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
     (snapshot install); shipping starts from the current tail. *)
  t.retained <- [];
  t.rounds <- [];
  t.sent_lsn <- Wal.appended_lsn t.wal;
  t.shipped_lsn <- t.sent_lsn

(* Wake the ship waiters whose records [shipped_lsn] now covers, or all of
   them when the shipper is gone (they run on unshipped). *)
let wake_shipped t =
  let ready, parked =
    List.partition
      (fun (lsn, _) -> t.shipper = None || lsn <= t.shipped_lsn)
      t.ship_waiters
  in
  t.ship_waiters <- parked;
  List.iter (fun (_, w) -> ignore (Sched.wake w ())) (List.rev ready)

let clear_shipper t =
  t.shipper <- None;
  t.retained <- [];
  t.rounds <- [];
  wake_shipped t

let shipping t = t.shipper <> None
let shipped_lsn t = t.shipped_lsn
let pending_ship t = List.length t.retained
let ship_in_flight t = t.in_flight > 0
let ships t = t.n_ships

(* Advance [shipped_lsn] over the acknowledged prefix of the rounds. A round
   acknowledged ahead of an earlier one waits for it: the peer applies in
   LSN order, so a later ack does not vouch for an earlier round. *)
let rec advance t =
  match t.rounds with
  | r :: rest when r.acked ->
    t.rounds <- rest;
    t.shipped_lsn <- r.hi;
    advance t
  | _ -> wake_shipped t

(* Start a ship round. The shipper callback blocks for its round trip, so
   the round runs in a fiber of its own and the caller goes on to its local
   sync. The round takes its records when that fiber first runs: every
   record appended by then, so committers woken at the same instant (a
   reply dequeue woken by the commit that enqueued it) share one round
   instead of starting one each. At most [max_rounds] rounds are in flight;
   past that, committers wait for a round to finish, and it starts the
   next one for all of them. The callback must not raise: a failed round
   is the owner's to handle (degrade), and clearing the shipper drops the
   round with the rest of the stream. *)
let rec launch t =
  if
    t.shipper <> None && t.retained <> [] && (not t.starting)
    && t.in_flight < max_rounds
  then begin
    t.starting <- true;
    t.in_flight <- t.in_flight + 1;
    ignore
      (Sched.fork ~name:"ship" (fun () ->
           Fun.protect
             ~finally:(fun () -> t.in_flight <- t.in_flight - 1)
             (fun () ->
               t.starting <- false;
               match (t.shipper, t.retained) with
               | Some ship, (hi, _) :: _ ->
                 let batch = List.rev t.retained in
                 let r = { hi; acked = false } in
                 t.retained <- [];
                 t.sent_lsn <- hi;
                 t.rounds <- t.rounds @ [ r ];
                 t.n_ships <- t.n_ships + 1;
                 ship batch;
                 r.acked <- true;
                 advance t
               | _ -> ());
           if List.exists (fun (lsn, _) -> lsn > t.sent_lsn) t.ship_waiters then
             launch t))
  end

(* Park until [shipped_lsn] covers [lsn], starting the round that carries
   it if none has. If the disk died the node is about to be declared
   crashed: bail rather than wait. *)
let rec await_shipped t lsn =
  if t.shipper <> None && lsn > t.shipped_lsn && not (Disk.is_dead t.disk)
  then begin
    if lsn > t.sent_lsn then launch t;
    Sched.suspend (fun _ w -> t.ship_waiters <- (lsn, w) :: t.ship_waiters);
    await_shipped t lsn
  end

(* Ship every retained record now and wait for the round — the lagged
   mode's periodic drain; a no-op when nothing is pending or no shipper is
   installed. *)
let ship_now t = await_shipped t (Wal.appended_lsn t.wal)

let reason_name = function
  | `Full -> "full"
  | `Timeout -> "timeout"
  | `Idle -> "idle"
  | `Rate -> "rate"

(* A sealed batch = one physical sync amortised over [n] committers. *)
let observe_batch t reason n =
  (match reason with
  | `Full -> t.s_full <- t.s_full + 1
  | `Timeout -> t.s_timeout <- t.s_timeout + 1
  | `Idle -> t.s_idle <- t.s_idle + 1
  | `Rate -> t.s_rate <- t.s_rate + 1);
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

(* Sealing: decide how long (if at all) this leader should hold the batch
   open, wait accordingly, and report why the batch sealed.

   The estimate [expected = sync_latency / ewma] is the number of commits
   that would arrive while one flush occupies the device. Below ~1.5 the
   device is keeping up — batching would only add latency, so seal
   immediately ([`Idle]; this keeps 1-server throughput at one flush per
   commit, which a fixed window gives away). Above it, the device is
   the bottleneck: hold the batch for [target = min expected max_batch]
   boarders, with a window bounded by both [max_delay] and the time the
   estimate says those boarders need to show up. *)
let seal t =
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
  let in_fiber = Sched.in_fiber () in
  if in_fiber then sample_arrival t;
  let lsn = Wal.appended_lsn t.wal in
  let ship = t.ship_sync && in_fiber in
  if lsn > Wal.durable_lsn t.wal && not (Disk.is_dead t.disk) then begin
    t.n_forces <- t.n_forces + 1;
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.inc ("gc.forces:" ^ Wal.name t.wal);
    if not in_fiber then begin
      (* Nothing can park or wait outside a fiber: the caller leads a batch
         of one and seals it at once with one direct sync. *)
      do_sync t;
      observe_batch t `Idle 1
    end
    else if t.leading then begin
      (* A leader already past its window will not take these records into
         its ship round: start the next round at once. *)
      if ship && t.syncing then launch t;
      board t lsn
    end
    else begin
      (* Leader even when sealing immediately: committers arriving while
         our sync occupies the device park as followers and are covered
         by it (the sync flushes everything appended before it runs), so
         an idle seal still costs one flush per commit at worst and picks
         up piggybackers for free. *)
      t.leading <- true;
      let reason = seal t in
      (* Synchronous shipping overlaps the ship round with the local sync,
         so a commit waits for the slower of the two, not their sum. *)
      if ship then launch t;
      t.syncing <- true;
      do_sync t;
      t.syncing <- false;
      t.leading <- false;
      let covered = wake_covered t in
      observe_batch t reason (covered + 1)
    end
  end;
  (* Synchronous shipping gates the commit exactly like durability does:
     a committer's records must be on the backup before [force] returns.
     This also covers the follower/skip cases above — a fiber whose
     records were already durable (so the body never ran) still must not
     proceed past an unshipped suffix. *)
  if ship then await_shipped t lsn

let append_force t payload =
  append t payload;
  force t
