module Disk = Rrq_storage.Disk
module Sched = Rrq_sim.Sched

(* Ship rounds a log keeps in flight at once. *)
let max_rounds = 2

type t = {
  wal : Wal.t;
  disk : Disk.t;
  mutable leading : bool; (* a leader's sync is under way *)
  mutable waiters : (int * bool Sched.waker) list; (* parked followers *)
  mutable n_forces : int;
  mutable n_syncs : int;
  (* Metric names, built once per log rather than per flush. *)
  m_syncs : string;
  m_forces : string;
  m_batch : string;
  (* Log shipping (primary-backup replication). While a shipper is
     installed every appended record is retained as (lsn, payload) until a
     ship round takes it. Rounds overlap: each covers the records appended
     since the previous one ([sent_lsn]), and [shipped_lsn] — the
     replication analogue of the durable LSN — advances only over a
     contiguous prefix of acknowledged rounds. In sync mode [force] will not
     return to a committer until both watermarks cover its records. *)
  mutable shipper : ((int * string) list -> unit) option;
  mutable ship_sync : bool;
  mutable retained : (int * string) list; (* newest first *)
  mutable sent_lsn : int;
  mutable shipped_lsn : int;
  mutable rounds : round list; (* this shipper's unacknowledged suffix, oldest first *)
  mutable starting : bool; (* a round's fiber is yet to take its records *)
  mutable in_flight : int; (* rounds whose fiber is running *)
  mutable ship_waiters : (int * unit Sched.waker) list;
}

and round = { hi : int; mutable acked : bool }

let create wal =
  {
    wal;
    disk = Wal.disk wal;
    leading = false;
    waiters = [];
    n_forces = 0;
    n_syncs = 0;
    m_syncs = "gc.syncs:" ^ Wal.name wal;
    m_forces = "gc.forces:" ^ Wal.name wal;
    m_batch = "gc.batch:" ^ Wal.name wal;
    shipper = None;
    ship_sync = true;
    retained = [];
    sent_lsn = 0;
    shipped_lsn = 0;
    rounds = [];
    starting = false;
    in_flight = 0;
    ship_waiters = [];
  }

let forces t = t.n_forces
let syncs t = t.n_syncs

let retain t frame =
  t.retained <- (Wal.appended_lsn t.wal, frame) :: t.retained

(* A shipper retains the frame string the log holds: each record's bytes
   are copied once, into its frame, whether or not they are shipped. *)
let append_frame t frame =
  Wal.append_frame t.wal frame;
  if t.shipper <> None then retain t frame

(* A shipper retains one flat frame string, because the standby decodes a
   flat frame; otherwise the log takes the encoder's layout. *)
let append_enc t e =
  if t.shipper = None then Wal.append_enc t.wal e
  else append_frame t (Wal.frame_enc e)

(* One physical flush, charged against the disk's device model when we can
   sleep (i.e. inside a fiber): the device serves one flush at a time, so
   the leaders of every log on one disk queue on it. *)
let do_sync t =
  (if Disk.sync_latency t.disk > 0.0 && Sched.in_fiber () then
     let wait = Disk.reserve_sync t.disk ~now:(Sched.clock ()) in
     if wait > 0.0 then Sched.sleep wait);
  Wal.sync t.wal;
  t.n_syncs <- t.n_syncs + 1;
  if Rrq_obs.enabled () then Rrq_obs.Metrics.inc t.m_syncs

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
let ship_in_flight t = t.in_flight > 0

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

(* One flush shared by [n] committers. *)
let observe_batch t n =
  if Rrq_obs.enabled () then begin
    Rrq_obs.Metrics.observe t.m_batch (float_of_int n);
    Rrq_obs.Trace.emit (Rrq_obs.Event.Batch_seal { wal = Wal.name t.wal; batch = n })
  end

(* One rule: the first committer that finds no sync under way leads and
   flushes at once; committers arriving during that flush park, and the
   flush covers them (it syncs everything appended before it ends). *)
let force t =
  let in_fiber = Sched.in_fiber () in
  let lsn = Wal.appended_lsn t.wal in
  let ship = t.ship_sync && in_fiber in
  if lsn > Wal.durable_lsn t.wal && not (Disk.is_dead t.disk) then begin
    t.n_forces <- t.n_forces + 1;
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.inc t.m_forces;
    if not in_fiber then begin
      (* Nothing can park outside a fiber: one direct sync. *)
      do_sync t;
      observe_batch t 1
    end
    else if t.leading then begin
      (* The leader's ship round may have started without these
         records: start the next round for them at once. *)
      if ship then launch t;
      ignore (Sched.suspend (fun _ w -> t.waiters <- (lsn, w) :: t.waiters))
    end
    else begin
      t.leading <- true;
      (* Synchronous shipping overlaps the ship round with the local sync,
         so a commit waits for the slower of the two, not their sum. *)
      if ship then launch t;
      do_sync t;
      t.leading <- false;
      observe_batch t (wake_covered t + 1)
    end
  end;
  (* Synchronous shipping gates the commit exactly like durability does:
     a committer's records must be on the backup before [force] returns.
     This also covers a fiber whose records were already durable (so the
     body never ran): it still must not proceed past an unshipped
     suffix. *)
  if ship then await_shipped t lsn

let append_force t payload =
  append_frame t (Wal.frame payload);
  force t
