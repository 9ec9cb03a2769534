module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched
module Cond = Rrq_sim.Cond
module Crashpoint = Rrq_sim.Crashpoint
module Disk = Rrq_storage.Disk
module Group_commit = Rrq_wal.Group_commit
module Node_log = Rrq_txn.Node_log
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb

type role = Primary | Standby

let role_to_string = function Primary -> "primary" | Standby -> "standby"

type mode = Sync | Lagged of float

type Net.payload +=
  | Ship of { epoch : int; batch : (int * string) list }
      (** Records with their primary LSNs, in LSN order. *)
  | Ship_ok
  | Ship_stale of int  (** Receiver's (higher) epoch: the sender is deposed. *)
  | Ship_refused
      (** The standby holds no snapshot of this incarnation, or the batch
          does not continue its stream: the sender must resync it. *)
  | Hb of { epoch : int; synced : bool }
      (** [synced]: the standby has installed a snapshot this incarnation. *)
  | Hb_ok of int
  | Ha_install of { epoch : int; snap : string; cut : int }
      (** [cut]: the primary LSN the snapshot covers; the stream goes on
          from [cut + 1]. *)
  | Ha_query
  | R_ha_role of { role : role; epoch : int }

type t = {
  site : Site.t;
  peer : string;
  mode : mode;
  ship_timeout : float;
  cold : float option;
  on_serving : t -> unit;
  mutable role : role;
  mutable epoch : int;
  (* Primary side: the shipping link. [link_up] means shippers are
     installed; [synced] means the peer holds our snapshot, so ship rounds
     may proceed (rounds that race the install park on this flag).
     Standby side: [synced] means this incarnation has installed the
     primary's snapshot — until then its state may lack commits the
     primary made while it was down, and it must not promote. Its
     heartbeats say so, and the primary answers by resyncing it. *)
  mutable link_up : bool;
  mutable synced : bool;
  mutable applied_bytes : int;
  (* Standby side: the primary LSN of the last record applied, and a
     condition signalled when it moves. Batches of overlapping ship rounds
     can arrive out of order; each waits for its predecessor. *)
  mutable applied_lsn : int;
  applied : Cond.t;
  mutable installs : int; (* snapshots installed; a new one starts a new stream *)
  (* Primary side: ship RPCs awaiting their answer. *)
  mutable ships_in_flight : int;
  (* Accounting. *)
  mutable n_ship_batches : int;
  mutable n_failovers : int;
  mutable n_degrades : int;
  mutable n_resyncs : int;
  mutable last_promote_at : float;
  (* Standby side: virtual time of the last ha-service message from the
     peer. A primary that is alive keeps talking (rejoin query, resync,
     ship rounds) even when heartbeat probes sent during its outage are
     still timing out; the monitor must not promote over it. *)
  mutable last_peer_seen : float;
}

(* ---- durable role ----------------------------------------------------- *)

let role_file = "ha.role"

let read_role disk =
  match Disk.read_file disk role_file with
  | None -> None
  | Some s -> (
    match String.split_on_char ' ' (String.trim s) with
    | [ "primary"; e ] -> Some (Primary, int_of_string e)
    | [ "standby"; e ] -> Some (Standby, int_of_string e)
    | _ -> None)

let write_role t role epoch =
  let line = Printf.sprintf "%s %d" (role_to_string role) epoch in
  ignore
    (Disk.replace_atomic
       (Net.disk (Site.node t.site))
       role_file (Bytes.of_string line) ~spliced:[] ~len:(String.length line));
  t.role <- role;
  t.epoch <- epoch

(* ---- accessors -------------------------------------------------------- *)

let site t = t.site
let peer t = t.peer
let role t = t.role
let epoch t = t.epoch
let is_serving t = t.role = Primary && not (Site.is_standby t.site)
let shipping t = t.link_up
let failovers t = t.n_failovers
let degrades t = t.n_degrades
let resyncs t = t.n_resyncs
let ship_batches t = t.n_ship_batches
let applied_bytes t = t.applied_bytes
let last_promote_at t = t.last_promote_at

(* The node log's batcher: the one stream this node ships. *)
let gc t = Node_log.group_commit (Site.log t.site)

(* Metrics are per node: [ha.<name>:<node>]. *)
let metric t name = "ha." ^ name ^ ":" ^ Net.node_name (Site.node t.site)
let count t name = if Rrq_obs.enabled () then Rrq_obs.Metrics.inc (metric t name)

(* ---- primary: degrade / shipping ------------------------------------- *)

(* Peer lost (or deposed us): stop shipping and run standalone; the link
   daemon keeps probing and re-establishes with a full snapshot resync. *)
let degrade t =
  if t.link_up then begin
    t.link_up <- false;
    t.synced <- false;
    t.n_degrades <- t.n_degrades + 1;
    count t "degrades";
    Group_commit.clear_shipper (gc t)
  end

(* A peer with a higher epoch answered: this node was failed over while it
   was away. Crash-restart; the boot-time rejoin check demotes it cleanly
   (killing its server fibers with it — a deposed primary must not keep
   executing requests). *)
let deposed t =
  degrade t;
  Net.crash_restart (Site.node t.site) ~after:0.05

let ship_rpc t msg =
  Net.call (Site.node t.site) ~timeout:t.ship_timeout ~dst:t.peer ~service:"ha"
    msg

let set_in_flight t n =
  t.ships_in_flight <- n;
  if Rrq_obs.enabled () then
    Rrq_obs.Metrics.set_gauge (metric t "ships_in_flight") (float_of_int n)

(* The shipper callback, run in the fiber of one ship round (committers
   parked behind it in sync mode; other rounds may be in flight). Must not
   raise: failures degrade the link. *)
let ship t batch =
  if t.link_up then begin
    while t.link_up && not t.synced do
      Sched.sleep_background 0.01
    done;
    if t.link_up then begin
      (* The round holds its records, and the primary's sync of them may
         still be running: nothing of it has left this node. *)
      Crashpoint.reach "ship.start";
      count t "ship_rounds";
      set_in_flight t (t.ships_in_flight + 1);
      let sent_at = if Rrq_obs.enabled () then Sched.clock () else 0.0 in
      let reply =
        match ship_rpc t (Ship { epoch = t.epoch; batch }) with
        | reply -> Some reply
        | exception (Net.Rpc_timeout | Net.Service_error _) -> None
      in
      set_in_flight t (t.ships_in_flight - 1);
      match reply with
      | Some Ship_ok ->
        t.n_ship_batches <- t.n_ship_batches + 1;
        if Rrq_obs.enabled () then
          Rrq_obs.Metrics.observe (metric t "ship_rtt_ms")
            ((Sched.clock () -. sent_at) *. 1000.0);
        (* The backup holds the batch; the primary has not yet released the
           committer (sync mode) nor replied to any client. *)
        Crashpoint.reach "ship.sent"
      | Some (Ship_stale _) -> deposed t
      | Some _ | None -> degrade t
    end
  end

let attempt_resync t =
  match ship_rpc t Ha_query with
  | R_ha_role { role = Primary; epoch } when epoch > t.epoch -> deposed t
  | R_ha_role { role = Standby; _ } | R_ha_role { role = Primary; _ } ->
    (* Peer reachable and not ahead of us: bring it up to date. No
       committer may sit between append and apply while we capture: a
       fiber parked in a log force has appended records the snapshot
       cannot see and the (about-to-be-installed) shipper will never
       retain. The same holds for a ship round still in flight — its RPC
       to a dead standby incarnation can outlive the link, holding a
       durable commit unapplied. Force the log out rather than waiting for
       it to drain on its own: a lazily appended record with no force of
       its own (a TM End record) would keep the appended LSN ahead of the
       durable LSN forever. A committer parked mid-force is covered by the
       same sync, and the loop re-checks until the log holds still. *)
    let log = Site.log t.site in
    while not (Node_log.quiet log) do
      Node_log.force log;
      Sched.sleep_background 0.005
    done;
    (* The standby is unsynced now, and stays so until the install. *)
    Crashpoint.reach "ha.resync";
    (* From here to [set_shipper] there must be no yield: the snapshot and
       the retained-record set must cut the log at one instant. Ship
       rounds triggered meanwhile park on [synced]. *)
    let snap = Node_log.snapshot log in
    Group_commit.set_shipper ~sync:(t.mode = Sync) (gc t) (ship t);
    let cut = Group_commit.shipped_lsn (gc t) in
    t.link_up <- true;
    t.synced <- false;
    (match ship_rpc t (Ha_install { epoch = t.epoch; snap; cut }) with
    | Net.Ack ->
      t.synced <- true;
      t.n_resyncs <- t.n_resyncs + 1;
      count t "resyncs"
    | Ship_stale _ -> deposed t
    | _ -> degrade t
    | exception (Net.Rpc_timeout | Net.Service_error _) -> degrade t)
  | _ -> ()
  | exception (Net.Rpc_timeout | Net.Service_error _) -> ()

(* ---- standby: apply --------------------------------------------------- *)

(* Payload bytes: a shipped record is a WAL frame, header included. *)
let batch_bytes batch =
  List.fold_left
    (fun acc (_, f) -> acc + String.length f - Rrq_wal.Wal.frame_header)
    0 batch

let set_applied t lsn =
  t.applied_lsn <- lsn;
  Cond.broadcast t.applied

(* Wait, for at most half the sender's ship timeout, until a batch that
   starts at primary LSN [first] continues the applied stream. The batch
   of an overlapping earlier round can be overtaken on the wire; past the
   bound it is taken as lost. Returns whether the batch may apply: it
   continues the stream, and no snapshot install started a new stream
   (whose LSNs may reuse this batch's) while it waited. *)
let await_turn t first =
  let stream = t.installs in
  let deadline = Sched.clock () +. (t.ship_timeout /. 2.0) in
  if t.synced && first > t.applied_lsn + 1 then count t "ships_overtaken";
  while
    t.synced && first > t.applied_lsn + 1 && t.installs = stream
    && Sched.clock () < deadline
  do
    ignore (Cond.wait_timeout t.applied (deadline -. Sched.clock ()))
  done;
  t.synced && first <= t.applied_lsn + 1 && t.installs = stream

(* Apply the records of [batch] past [applied_lsn] (a prefix already
   applied is skipped), then force them: a standby acknowledges only what
   its own log holds. Records are appended and replayed before the force
   yields, so the next batch may apply behind them at once. *)
let apply_batch t batch =
  let fresh = List.filter (fun (lsn, _) -> lsn > t.applied_lsn) batch in
  (match List.rev fresh with
  | (last, _) :: _ -> set_applied t last
  | [] -> ());
  Node_log.standby_apply (Site.log t.site) (List.map snd fresh);
  t.applied_bytes <- t.applied_bytes + batch_bytes fresh

let install t snap ~cut =
  Node_log.standby_install (Site.log t.site) snap;
  t.installs <- t.installs + 1;
  set_applied t cut;
  t.applied_bytes <- 0

(* ---- promotion -------------------------------------------------------- *)

(* Assume the serving-primary duties for this incarnation. Shared by
   promotion, by a reboot that finds a durable primary role, and by the
   initial boot of the configured primary. *)
let rec become_serving t =
  (* The node log holds the commit decisions the primary logged (shipped,
     or in the resync snapshot); their remote participants may still wait
     for delivery. *)
  Tm.recover_pending (Site.tm t.site);
  (* Replies addressed to the late peer's reply queues are ours now. *)
  Site.set_aliases t.site [ t.peer ];
  Site.set_standby t.site false;
  Net.spawn_on (Site.node t.site) ~name:"ha:link" (link_daemon t);
  t.on_serving t

(* Primary-side link daemon: re-establish a lost link (full resync) and, in
   lagged mode, drain the retained records every [lag] seconds — the
   speculative-reply window the failover tests probe. *)
and link_daemon t () =
  let interval = match t.mode with Sync -> 0.5 | Lagged d -> d in
  let rec loop () =
    if t.role = Primary then begin
      if not t.link_up then attempt_resync t
      else
        match t.mode with
        | Sync -> ()
        | Lagged _ -> Group_commit.ship_now (gc t)
    end;
    Sched.sleep_background interval;
    loop ()
  in
  loop ()

let promote t =
  Crashpoint.reach "ha.promote";
  (* No yield between here and the durable role flip: a half-promoted
     standby must either still be a standby (crash before the flip — the
     next incarnation detects the dead primary again) or durably the new
     primary (crash after — boot redoes the idempotent remainder). *)
  write_role t Primary (t.epoch + 1);
  t.n_failovers <- t.n_failovers + 1;
  count t "promotions";
  t.last_promote_at <- (if Sched.in_fiber () then Sched.clock () else 0.0);
  (* Cold-standby model for the benchmark: the shipped log was stored but
     not replayed, so promotion pays a scan at recovery bandwidth. *)
  Option.iter (fun rate -> Sched.sleep (float_of_int t.applied_bytes /. rate)) t.cold;
  Qm.bump_incarnation (Site.qm t.site);
  (* The primary's in-doubt work (its staged records' sections, remote
     coordinators' prepares) must stay invisible to the servers that start
     here. *)
  Qm.relock_in_doubt (Site.qm t.site);
  Kvdb.relock_in_doubt (Site.kv t.site);
  become_serving t

(* Standby-side monitor: probe the primary every [hb_every] seconds; after
   [miss_limit] consecutive misses, confirm once more and take over. *)
let hb_every = 0.25
let miss_limit = 3

let monitor_daemon t () =
  let probe () =
    match
      Net.call (Site.node t.site) ~timeout:hb_every ~dst:t.peer
        ~service:"ha" (Hb { epoch = t.epoch; synced = t.synced })
    with
    | Hb_ok _ -> true
    | _ -> false
    | exception (Net.Rpc_timeout | Net.Service_error _) -> false
  in
  let rec loop misses ~since =
    Sched.sleep_background hb_every;
    if t.role = Standby then
      if probe () then loop 0 ~since:0.0
      else begin
        let since = if misses = 0 then Sched.clock () else since in
        let misses = misses + 1 in
        if misses < miss_limit then loop misses ~since
        else if probe () then loop 0 ~since:0.0 (* final confirmation *)
        else if not t.synced then
          (* Back from a crash and not yet resynced: the primary may have
             committed alone while this node was down, and promoting would
             lose those commits. Wait for the primary instead — even if it
             was already dead before this node crashed, which this node
             cannot tell apart. *)
          loop 0 ~since:0.0
        else if t.last_peer_seen >= since then
          (* The peer contacted this node while the probes were timing
             out — a probe launched during its outage can expire after it
             is back. It is alive; promoting now would be a split brain. *)
          loop 0 ~since:0.0
        else begin
          Crashpoint.reach "ha.heartbeat_miss";
          promote t
        end
      end
  in
  loop 0 ~since:0.0

(* ---- the "ha" service ------------------------------------------------- *)

let ha_service t msg =
  if Sched.in_fiber () then t.last_peer_seen <- Sched.clock ();
  match msg with
  | Hb { synced; _ } ->
    if t.role = Primary then begin
      (* A standby back from a crash reports it holds no snapshot of this
         incarnation. A link that still looks up (nothing was shipped
         while it was down) must be re-established anyway: degrade, and
         the link daemon resyncs it. *)
      if (not synced) && t.link_up && t.synced then degrade t;
      Hb_ok t.epoch
    end
    else failwith "ha: standby does not answer heartbeats"
  | Ha_query ->
    (* The asking primary may be back from a crash that lost records it
       had already shipped here (a round overlaps the primary's own sync).
       It will serve without them, so this node must not take over with
       them: it stays unsynced until the resync snapshot replaces them. *)
    if t.role = Standby then t.synced <- false;
    R_ha_role { role = t.role; epoch = t.epoch }
  | Ship { epoch; batch } ->
    let first = match batch with (lsn, _) :: _ -> lsn | [] -> 0 in
    let in_turn = epoch >= t.epoch && t.role = Standby && await_turn t first in
    if epoch < t.epoch || t.role = Primary then Ship_stale t.epoch
    else if not in_turn then Ship_refused
    else begin
      apply_batch t batch;
      (* The batch is durable here but the primary has not seen the ack. *)
      Crashpoint.reach "ship.applied";
      Ship_ok
    end
  | Ha_install { epoch; snap; cut } ->
    if epoch < t.epoch || t.role = Primary then Ship_stale t.epoch
    else begin
      install t snap ~cut;
      if epoch > t.epoch then write_role t Standby epoch;
      t.synced <- true;
      Net.Ack
    end
  | _ -> raise (Invalid_argument "ha service: unexpected message")

(* ---- boot / attach ---------------------------------------------------- *)

(* A restarting node that last ran as primary may have been failed over
   while it was down. Stay gated until the peer has been asked: demote if
   it is a primary with a newer epoch, else resume serving. *)
let rejoin_check t =
  match ship_rpc t Ha_query with
  | R_ha_role { role = Primary; epoch } when epoch > t.epoch ->
    write_role t Standby epoch;
    Site.set_aliases t.site [];
    Site.set_standby t.site true;
    Net.spawn_on (Site.node t.site) ~name:"ha:monitor" (monitor_daemon t)
  | _ -> become_serving t
  | exception (Net.Rpc_timeout | Net.Service_error _) ->
    (* Peer unreachable: trust the durable role. *)
    become_serving t

let boot_hook t site =
  ignore site;
  let nd = Site.node t.site in
  (match read_role (Net.disk nd) with
  | Some (r, e) ->
    t.role <- r;
    t.epoch <- e
  | None -> write_role t t.role t.epoch);
  t.link_up <- false;
  t.synced <- false;
  t.applied_bytes <- 0;
  t.applied_lsn <- 0;
  set_in_flight t 0;
  Net.add_service nd "ha" (ha_service t);
  match t.role with
  | Standby ->
    Site.set_standby t.site true;
    Site.set_aliases t.site [];
    Net.spawn_on nd ~name:"ha:monitor" (monitor_daemon t)
  | Primary ->
    (* Gate until the rejoin check has run: a deposed ex-primary must not
       serve a single request of its stale incarnation. *)
    Site.set_standby t.site true;
    Net.spawn_on nd ~name:"ha:rejoin" (fun () -> rejoin_check t)

let attach ?(mode = Sync) ?(ship_timeout = 2.0) ?cold ?(on_serving = fun _ -> ())
    site ~peer ~role =
  let t =
    {
      site;
      peer;
      mode;
      ship_timeout;
      cold;
      on_serving;
      role;
      epoch = 1;
      link_up = false;
      synced = false;
      applied_bytes = 0;
      applied_lsn = 0;
      applied = Cond.create ();
      installs = 0;
      ships_in_flight = 0;
      n_ship_batches = 0;
      n_failovers = 0;
      n_degrades = 0;
      n_resyncs = 0;
      last_promote_at = 0.0;
      last_peer_seen = neg_infinity;
    }
  in
  Site.on_boot site (boot_hook t);
  t
