(* Checkable scenarios: small closed worlds (clients, repositories, a
   network) that run one fault plan to quiescence and audit themselves.

   Every scenario is one [topology] value, and one function ([build])
   turns any topology into a run. The topology holds the world's
   description ([World.t]: the repositories, each a single site or an HA
   pair, the shard map, the queues and the servers), the shard map's
   mid-run change, the workload, the network's drop rate, the client
   population and whether the client is the designed broken one. [build]
   boots the world through [World.build], installs the workload, runs the
   clients and audits the quiesced world with the workload's auditor set. *)

module Sched = Rrq_sim.Sched
module Crashpoint = Rrq_sim.Crashpoint
module Disk = Rrq_storage.Disk
module Rng = Rrq_util.Rng
module Net = Rrq_net.Net
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Ha = Rrq_core.Ha
module Shard = Rrq_core.Shard
module Kvdb = Rrq_kvdb.Kvdb
module Tm = Rrq_txn.Tm
module Pipeline = Rrq_core.Pipeline

type outcome = {
  findings : Audit.finding list;
  trace : Sched.decision array;
  trace_truncated : bool;
  requests : int;
  replies : int;
  virtual_time : float;
  failovers : int;
  totals : (string * int) list;
}

(* ---- topologies --------------------------------------------------------- *)

type map_change = {
  change_at : float;  (** when an admin fiber pushes [next] *)
  next : Shard.map;
}

type workload =
  | Requests  (** one-transaction requests to a counting server on ["req"] *)
  | Chain
      (** the §6 transfer pipeline over three single repositories: debit
          on the first, credit on the second, clearing on the third *)

type topology = {
  world : World.t;
      (** A request world's repositories host the request queue and the
          counting servers; a chain's get theirs from [Pipeline.install]. *)
  map_change : map_change option;  (** set iff the world has a shard map *)
  workload : workload;
  drop_rate : float;  (** each message is lost with this probability *)
  clients : int;
  reqs : int;  (** per client *)
  prefix : string;  (** client ids are [prefix ^ index] *)
  blind_client : bool;
      (** The one client enqueues untagged and blindly re-Sends on a reply
          timeout (no rid check): the duplicate-request bug the paper's
          registration tags exist to prevent. *)
  body_bytes : int;  (** request bodies are padded to this length *)
  unfenced_bug : bool;
      (** The clerks never fence their last Receive ([Clerk.connect]'s
          designed anomaly). *)
}

type t = {
  name : string;
  profile : Plan.profile;
  probe : Plan.t;
  topology : topology;
}

let failed o = o.findings <> []

let primary = function World.Single n -> n | World.Pair p -> p.primary
let nodes = function World.Single n -> [ n ] | World.Pair p -> [ p.primary; p.standby ]

let client_ids topo =
  if topo.blind_client then [ topo.prefix ]
  else List.init topo.clients (fun c -> topo.prefix ^ string_of_int c)

let client_rids topo id = List.init topo.reqs (Printf.sprintf "%s-r%d" id)
let rids topo = List.concat_map (client_rids topo) (client_ids topo)

(* The nodes that may hold a client's lazy Receive: its reply queue's
   repository and that repository's standby. Reply queues never move. *)
let reply_nodes topo client_id =
  match topo.world.shards with
  | Some sh ->
    let m = sh.World.map in
    Shard.candidates m
      (Shard.key_for m ~queue:(Shard.reply_queue client_id) ~registrant:client_id)
  | None -> nodes (List.hd topo.world.repos)

(* Plans crash any repository primary, and cut the client's link to the
   first repository and each link between neighbouring repositories. *)
let profile_of topo =
  let prims = List.map primary topo.world.repos in
  let rec links = function a :: (b :: _ as rest) -> (a, b) :: links rest | _ -> [] in
  {
    Plan.crash_nodes = prims;
    partition_pairs = ("client", List.hd prims) :: links prims;
    horizon = 6.0;
    max_faults = 3;
  }

(* The plan crash sweeps probe and re-run: fault-free, or — with an HA
   pair — killing the first pair's primary at t=2, so the failover path
   (heartbeat-miss, promote) is on the map. *)
let probe_of topo =
  let faults =
    match
      List.find_map
        (function World.Pair p -> Some p.primary | World.Single _ -> None)
        topo.world.repos
    with
    | Some node -> [ Plan.Crash { node; at = 2.0; recover_after = 6.0 } ]
    | None -> []
  in
  Plan.make ~seed:0 ~policy:`Fifo ~faults

let make name topology =
  { name; profile = profile_of topology; probe = probe_of topology; topology }

(* ---- building the world ------------------------------------------------- *)

(* The §6 funds transfer (fig. 6): each stage is one transaction on its own
   repository, and moves the request on to the next stage's queue. *)
let amount = 100
let opening_balance = 1000

let transfer_stages site_a site_b site_c =
  [
    {
      Pipeline.stage_site = site_a;
      in_queue = "debit";
      work =
        (fun site txn env ->
          ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "acct:src" (-amount));
          (env.Envelope.body, "debited"));
      compensate = None;
    };
    {
      Pipeline.stage_site = site_b;
      in_queue = "credit";
      work =
        (fun site txn env ->
          ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "acct:dst" amount);
          (env.Envelope.body, "credited"));
      compensate = None;
    };
    {
      Pipeline.stage_site = site_c;
      in_queue = "clear";
      work =
        (fun site txn env ->
          ignore (Kvdb.add (Site.kv site) (Tm.txn_id txn) "cleared" 1);
          ("ok:" ^ env.Envelope.rid, ""));
      compensate = None;
    };
  ]

(* Start the workload's servers on the built repositories and return the
   queue clients send to. A chain's first repository opens the source
   account at boot, before its stage server starts, until the opening is
   durable: like a site's configured queues, it is part of the world, and
   a crash that loses it is no crash of a chain. *)
let install_workload topo world =
  match topo.workload with
  | Requests -> "req"
  | Chain ->
    let site i = List.nth (World.authoritative world) i in
    Site.on_boot (site 0) (fun bank_a ->
        let kv = Site.kv bank_a in
        if Kvdb.committed_value kv "acct:src" = None then
          Site.with_txn bank_a (fun txn ->
              Kvdb.put kv (Tm.txn_id txn) "acct:src" (string_of_int opening_balance)));
    Pipeline.entry_queue
      (Pipeline.install (transfer_stages (site 0) (site 1) (site 2)))

(* What the clients saw, for the reply auditors: per rid, each sighting
   of its reply (the eid, when the Receive was asked and when it
   returned) and its client and reply queue's nodes; per clerk Receive,
   the rid it awaited and the rid it got; per client, when each of its
   Sends was acknowledged; and every crash, by node and time. *)
type sighting = { eid : int64; asked : float; got : float }

type evidence = {
  seen : (string, sighting list) Hashtbl.t;
  home : (string, string * string list) Hashtbl.t;
  mutable answers : (string * string) list;
  sends : (string, float list) Hashtbl.t;
  mutable crashes : (string * float) list;
}

let count ev rid eid ~asked =
  Hashtbl.replace ev.seen rid
    ({ eid; asked; got = Sched.clock () }
    :: Option.value ~default:[] (Hashtbl.find_opt ev.seen rid))

let acked ev ~client =
  Hashtbl.replace ev.sends client
    (Sched.clock () :: Option.value ~default:[] (Hashtbl.find_opt ev.sends client))

(* A Receive's answer reaches its clerk within this long of the dequeue:
   two 5 ms hops (through a shard router), with room to spare. *)
let in_flight = 0.05

(* The crashes that may each have undone one Receive of [rid]'s reply: a
   crash of its reply queue's nodes after some sighting's dequeue (no
   earlier than the Receive was asked, nor than [in_flight] before it
   returned) and before that Receive's fence, the client's next Send
   (none: until the end). *)
let crashes_after ev rid =
  match Hashtbl.find_opt ev.home rid with
  | None -> 0
  | Some (client, home) ->
    let sends = Option.value ~default:[] (Hashtbl.find_opt ev.sends client) in
    let windows =
      List.map
        (fun sg ->
          ( Float.max sg.asked (sg.got -. in_flight),
            List.fold_left
              (fun acc t -> if t > sg.got then Float.min acc t else acc)
              infinity sends ))
        (Option.value ~default:[] (Hashtbl.find_opt ev.seen rid))
    in
    List.length
      (List.filter
         (fun (node, c) ->
           List.mem node home
           && List.exists (fun (opened, closed) -> c >= opened && c <= closed) windows)
         ev.crashes)

(* Faults run as scheduler callbacks at their planned virtual times,
   dispatched by node name. A crash while the node is already down is
   skipped ([Net.crash_restart]), so overlapping faults cannot double-boot
   a site. *)
let inject sched net sites ev (plan : Plan.t) =
  List.iter
    (fun fault ->
      match fault with
      | Plan.Crash { node; at; recover_after } -> (
        match List.assoc_opt node sites with
        | None -> ()
        | Some site ->
          Sched.at sched at (fun () ->
              ev.crashes <- (node, at) :: ev.crashes;
              Site.crash_restart site ~after:recover_after))
      | Plan.Partition { a; b; at; heal_after } ->
        Sched.at sched at (fun () ->
            Net.partition net a b;
            Sched.at sched
              (Sched.now sched +. heal_after)
              (fun () -> Net.heal net a b)))
    plan.Plan.faults

(* A one-shot kill of [victim] at the [hit]-th reach of a named crash site
   ([Rrq_sim.Crashpoint]), which may be reached on another node: killing
   the primary at ["ship.applied"] fires from the standby's apply fiber.
   The kill is synchronous — freeze the disk, crash the node — before
   control returns to the reaching code, so no acknowledgment of a
   never-durable effect can escape to a client. *)
let arm sched net ev (site, hit, victim, recover_after) =
  Crashpoint.reset ();
  Crashpoint.arm ~site ~hit (fun () ->
      let node = Net.node net victim in
      let up = Net.is_up node in
      ev.crashes <- (victim, Sched.now sched) :: ev.crashes;
      Sched.note_fault sched
        (Printf.sprintf "crashpoint %s %s %s" site
           (if up then "kills" else "finds down")
           victim);
      if up then begin
        let disk = Net.disk node in
        Disk.kill_now disk;
        Net.crash node;
        Disk.revive disk;
        Sched.at sched
          (Sched.now sched +. recover_after)
          (fun () -> Net.restart node)
      end;
      (* If the site was reached from one of the victim's own fibers, that
         fiber died mid-instruction: unwind it with [Crash] (the scheduler
         counts that as a kill, and no Swallow-disciplined handler may eat
         it — rrq_lint R1). *)
      if Sched.in_fiber () && Sched.fiber_group (Sched.self ()) = Some victim
      then Crashpoint.crash ())

(* A well-behaved client: tagged Sends, Receives retried through outages,
   every received reply counted per rid and paired with the rid awaited —
   the reply auditors' evidence of what escaped to the client. Retry
   budgets comfortably exceed the worst fault schedule a profile can
   generate, so a correct run can never report a lost request. With a
   shard map it starts from the initial map and pauses between requests,
   so the second one straddles the map change (later is fine: the map
   only gets newer). *)
let clerk_client topo ~client_node ~req_queue ~ev ~replies client_id =
  let entry = List.hd topo.world.repos in
  let backups = if topo.world.shards = None then List.tl (nodes entry) else [] in
  let shard_map = Option.map (fun sh -> sh.World.map) topo.world.shards in
  let rec connect n =
    match
      Clerk.connect ~client_node ~system:(primary entry) ~backups ?shard_map
        ~client_id ~req_queue ~retries:8 ~unfenced_bug:topo.unfenced_bug ()
    with
    | clerk, _ -> clerk
    | exception Clerk.Unavailable _ when n > 0 ->
      Sched.sleep 1.0;
      connect (n - 1)
  in
  let clerk = connect 60 in
  for r = 0 to topo.reqs - 1 do
    (match topo.map_change with
    | Some ch when r > 0 -> Sched.sleep (ch.change_at +. 0.2)
    | _ -> ());
    let rid = Printf.sprintf "%s-r%d" client_id r in
    let body = "work:" ^ rid in
    let body = body ^ String.make (max 0 (topo.body_bytes - String.length body)) '.' in
    let rec send n =
      try ignore (Clerk.send clerk ~rid body)
      with Clerk.Unavailable _ when n > 0 ->
        Sched.sleep 1.0;
        send (n - 1)
    in
    send 60;
    acked ev ~client:client_id;
    let deadline = Sched.clock () +. 60.0 in
    let rec recv () =
      let asked = Sched.clock () in
      let reply =
        try Clerk.receive clerk ~timeout:2.0 ()
        with Clerk.Unavailable _ ->
          Sched.sleep 1.0;
          None
      in
      match reply with
      | Some env when env.Envelope.kind <> "intermediate" ->
        count ev env.Envelope.rid (Option.get (Clerk.reply_eid clerk)) ~asked;
        ev.answers <- (rid, env.Envelope.rid) :: ev.answers;
        incr replies
      | _ -> if Sched.clock () < deadline then recv ()
    in
    recv ()
  done

(* The designed broken client, the topology's only one, talking raw QM
   messages to the entry repository: no registration tag on the Send, so
   the QM cannot suppress duplicates, and the retry re-Sends the same rid
   without checking whether the first copy survived. *)
let blind_client topo ~client_node ~ev ~replies =
  let client_id = topo.prefix in
  let dst = primary (List.hd topo.world.repos) in
  let reply_queue = Shard.reply_queue client_id in
  let call ?(timeout = 1.0) payload =
    Net.call client_node ~timeout ~dst ~service:"qm" payload
  in
  let rec setup n =
    try
      ignore (call (Site.Q_create_queue reply_queue));
      List.iter
        (fun queue ->
          ignore
            (call (Site.Q_register { queue; registrant = client_id; stable = true })))
        [ "req"; reply_queue ]
    with _ when n > 0 ->
      Sched.sleep 0.5;
      setup (n - 1)
  in
  setup 60;
  List.iter
    (fun rid ->
      let env =
        Envelope.make ~rid ~client_id ~reply_node:dst ~reply_queue ("pay:" ^ rid)
      in
      let blind_send () =
        try
          ignore
            (call
               (Site.Q_enqueue
                  {
                    registrant = client_id;
                    queue = "req";
                    tag = None;
                    props = Envelope.props env;
                    priority = 0;
                    body = env.Envelope.body;
                  }))
        with e when Rrq_util.Swallow.nonfatal e -> ()
      in
      blind_send ();
      let deadline = Sched.clock () +. 12.0 in
      let rec recv () =
        let asked = Sched.clock () in
        let got =
          match
            call ~timeout:2.5
              (Site.Q_dequeue
                 {
                   registrant = client_id;
                   queue = reply_queue;
                   tag = None;
                   filter = None;
                   timeout = Some 1.0;
                 })
          with
          | Site.R_element (Some v) -> Some v
          | _ -> None
          | exception e when Rrq_util.Swallow.nonfatal e -> None
        in
        match got with
        | Some v ->
          let got_rid =
            (Envelope.of_parts ~props:v.Site.v_props v.Site.v_payload).Envelope.rid
          in
          count ev got_rid v.Site.v_eid ~asked;
          (* A stray (an older request's reply, given back by a crash):
             keep waiting for ours. *)
          if got_rid = rid then incr replies
          else if Sched.clock () < deadline then recv ()
        | None ->
          if Sched.clock () < deadline then begin
            blind_send ();
            Sched.sleep 0.1;
            recv ()
          end
      in
      recv ();
      Sched.sleep 0.6)
    (rids topo)

(* The map change: an admin pushing the next map to every repository,
   re-pushing the laggards (crashed or partitioned ones ack after they come
   back — installs are idempotent by version). *)
let change_map client_node ch =
  Sched.sleep ch.change_at;
  let rec push remaining =
    if remaining <> [] then begin
      let acked = Shard.install_from client_node ~shards:remaining ch.next in
      let rest = List.filter (fun n -> not (List.mem n acked)) remaining in
      if rest <> [] then begin
        Sched.sleep 0.5;
        push rest
      end
    end
  in
  push (Shard.all_nodes ch.next)

let balance site key =
  match Kvdb.committed_value (Site.kv site) key with
  | Some v -> Option.value ~default:0 (int_of_string_opt v)
  | None -> 0

(* The workload's auditors, with the named totals they read from the
   authoritative repositories. A request world: exactly-once over the
   counting handler's executions and their summed ledger. A chain executes
   each request once per stage: it conserves money, and counts its credits
   and clearings, which a lost or repeated stage moves off their expected
   values. Both: reply delivery over the authoritative repositories,
   reply matching, and structure and in-doubt survivors over every site. *)
let auditors topo world ~rids ~ev =
  let auth () = World.authoritative world in
  let every () = List.map snd (World.sites world) in
  let requests = List.length rids in
  let totals, workload_auditors =
    match topo.workload with
    | Requests ->
      let total () =
        List.fold_left (fun acc site -> acc + balance site "total") 0 (auth ())
      in
      ( [ ("exec-total", total) ],
        [
          Audit.exactly_once ~sites:auth ~rids:(fun () -> rids);
          Audit.conservation ~name:"exec-total" ~expected:requests ~actual:total;
        ] )
    | Chain ->
      let at i key () = balance (List.nth (auth ()) i) key in
      let src = at 0 "acct:src" and dst = at 1 "acct:dst" and cleared = at 2 "cleared" in
      ( [ ("src", src); ("dst", dst); ("cleared", cleared) ],
        [
          Audit.conservation ~name:"money" ~expected:opening_balance
            ~actual:(fun () -> src () + dst ());
          Audit.conservation ~name:"credited" ~expected:(amount * requests)
            ~actual:dst;
          Audit.conservation ~name:"cleared" ~expected:requests ~actual:cleared;
        ] )
  in
  ( totals,
    workload_auditors
    @ [
        Audit.replies_seen ~sites:auth
          ~seen:(fun rid ->
            List.map (fun sg -> sg.eid) (Option.value ~default:[] (Hashtbl.find_opt ev.seen rid)))
          ~crashes:(crashes_after ev) ~rids:(fun () -> rids);
        Audit.reply_matching ~answers:(fun () -> List.rev ev.answers);
        Audit.queue_integrity ~sites:every;
        Audit.no_in_doubt ~sites:every;
      ] )

(* [armed] is [(site, hit, victim, recover_after)]: see [arm]. *)
let build ?armed ?policy t (plan : Plan.t) =
  let topo = t.topology in
  let pol = match policy with Some p -> p | None -> Plan.sched_policy plan in
  let rids = rids topo in
  let replies = ref 0 in
  let ev =
    {
      seen = Hashtbl.create 16;
      home = Hashtbl.create 16;
      answers = [];
      sends = Hashtbl.create 16;
      crashes = [];
    }
  in
  List.iter
    (fun id ->
      let home = (id, reply_nodes topo id) in
      List.iter (fun rid -> Hashtbl.replace ev.home rid home) (client_rids topo id))
    (client_ids topo);
  let body () =
    let (findings, vt, failovers, totals), sched =
      Runner.run_scenario_traced ~policy:pol (fun s ->
          let net =
            Net.create ~latency:0.005 ~drop_rate:topo.drop_rate s
              (Rng.create ((plan.Plan.seed * 7) + 1))
          in
          (* Armed before the repositories boot, so hits count from the
             same origin as the probe's. *)
          Option.iter (arm s net ev) armed;
          let world = World.build net topo.world in
          let req_queue = install_workload topo world in
          let client_node = Net.make_node net "client" in
          inject s net (World.sites world) ev plan;
          fun () ->
            Option.iter
              (fun ch ->
                ignore
                  (Sched.fork ~name:"mapchange" (fun () ->
                       change_map client_node ch)))
              topo.map_change;
            (if topo.blind_client then
               blind_client topo ~client_node ~ev ~replies
             else begin
              let done_ = ref 0 in
              List.iteri
                (fun c id ->
                  ignore
                    (Sched.fork ~name:(Printf.sprintf "client%d" c) (fun () ->
                         clerk_client topo ~client_node ~req_queue ~ev ~replies
                           id;
                         incr done_)))
                (client_ids topo);
              ignore (Runner.await ~timeout:300.0 (fun () -> !done_ = topo.clients))
             end);
            (* settle: redelivery, resolvers, janitors — and with an HA
               pair failover, rejoin and resync *)
            let pair =
              List.exists (function World.Pair _ -> true | _ -> false) topo.world.repos
            in
            Sched.sleep (if pair then 25.0 else 20.0);
            let totals, auditors = auditors topo world ~rids ~ev in
            ( Audit.run auditors,
              Sched.clock (),
              World.failovers world,
              List.map (fun (name, read) -> (name, read ())) totals ))
    in
    {
      findings;
      trace = Sched.trace sched;
      trace_truncated = Sched.trace_truncated sched;
      requests = List.length rids;
      replies = !replies;
      virtual_time = vt;
      failovers;
      totals;
    }
  in
  match armed with
  | None -> body ()
  | Some _ -> Fun.protect ~finally:Crashpoint.disable body

let run ?policy t plan = build ?policy t plan

(* ---- configurations ----------------------------------------------------- *)

let quickstart_world =
  {
    world = { (World.single "backend") with server = World.counting_server 2 };
    map_change = None;
    workload = Requests;
    drop_rate = 0.0;
    clients = 2;
    reqs = 2;
    prefix = "c";
    blind_client = false;
    body_bytes = 0;
    unfenced_bug = false;
  }

let quickstart = make "quickstart" quickstart_world

(* The quickstart world with 16 KiB request bodies (and so 16 KiB
   replies): every body is logged by reference, as its frame's pieces,
   and the log crosses a checkpoint whose snapshot holds Rereceive copies
   by reference, so the crash sweep reaches both. *)
let quickstart_large =
  make "quickstart-large" { quickstart_world with body_bytes = 16384; reqs = 4 }

(* The quickstart world on a lossy network: every message, requests,
   replies and acks alike, is dropped with probability 0.08, so the clerk's
   retries and the QM's tag-based duplicate suppression carry every
   request. *)
let quickstart_lossy =
  make "quickstart-lossy"
    { quickstart_world with drop_rate = 0.08; clients = 4; reqs = 5 }

(* An HA pair's disks take 4 ms to flush, about a network hop: a ship
   round is on the wire while its primary's sync runs, so a crash can leave
   the standby holding records the primary lost. Off the hop's 5 ms
   lattice, so plan times (a 10 ms grid) can land inside a sync. *)
let pair primary standby mode =
  World.Pair { primary; standby; mode; sync_latency = 0.004; cold = None }

let with_repos ?shards repos topo =
  { topo with world = { topo.world with repos; shards } }

let ha_world mode =
  { (with_repos [ pair "primary" "backup" mode ] quickstart_world) with prefix = "h" }

let ha = make "ha" (ha_world Ha.Sync)

(* The lag-buggy shipper: replies released up to a second ahead of the
   backup. *)
let ha_lagged = make "ha-lagged" (ha_world (Ha.Lagged 1.0))

(* Three shard repositories on a shared request queue. Map v1 pins every
   client's request key onto shard0; at t=1 an admin installs v2 (pins
   dropped, pure hash placement), moving every key off shard0 mid-run.
   Chosen so the change exercises everything at once:
   - under v2 the hash owners of req#s0/s1/s2 are shard2/shard1/shard1 —
     every stale-mapped client gets forwarded (and refreshed by piggyback);
   - reply queues hash to shard1/shard2/shard0, so servers finish requests
     with cross-shard 2PC reply enqueues from the very first request;
   - retries that straddle the change reach owners with no local
     registration record, forcing the registration pull.
   [shard0] is the first repository: a single site or an HA pair, whose
   standby the map lists as shard0's backup candidate. [untag_forward_bug]
   is the designed misroute anomaly. *)
let sharded_world ?(untag_forward_bug = false) shard0 =
  let repos = [ shard0; World.Single "shard1"; World.Single "shard2" ] in
  let base =
    {
      Shard.version = 1;
      shards = List.map primary repos;
      backups =
        List.filter_map
          (function
            | World.Pair p -> Some (p.primary, [ p.standby ]) | World.Single _ -> None)
          repos;
      sharded_queues = [ "req" ];
      pins = [];
    }
  in
  (* Each reply queue is pinned where its name hashes (a map with no
     sharded queue places by name): off its client's request shard in
     both versions but for s2's under v1, so the servers' reply enqueues
     keep committing by cross-shard 2PC. *)
  let reply_pins =
    List.init 3 (fun c ->
        let q = Shard.reply_queue (Printf.sprintf "s%d" c) in
        (q, Shard.owner { base with sharded_queues = [] } q))
  in
  let map =
    {
      base with
      pins = List.init 3 (fun c -> (Printf.sprintf "req#s%d" c, "shard0")) @ reply_pins;
    }
  in
  {
    (with_repos ~shards:{ World.map; untag_forward_bug } repos quickstart_world) with
    map_change =
      Some { change_at = 1.0; next = { map with version = 2; pins = reply_pins } };
    clients = 3;
    prefix = "s";
  }

let sharded = make "sharded" (sharded_world (World.Single "shard0"))

let sharded_buggy =
  make "sharded-buggy" (sharded_world ~untag_forward_bug:true (World.Single "shard0"))

(* The designed fence anomaly: lazy Receives that no Send fences, where
   reply queues are pinned off their clients' request shards. A crash of
   a reply shard after the next Send was acknowledged, but before another
   commit forced its log, gives a received reply back. The server takes a
   second over each request, so the next reply's commit, which forces
   the reply shard's log, comes that long after the Send. *)
let slow_sharded_world ~unfenced_bug =
  let topo = sharded_world (World.Single "shard0") in
  let slow (sv : World.server) =
    {
      sv with
      World.handler =
        (fun site txn env ->
          Sched.sleep 1.0;
          sv.World.handler site txn env);
    }
  in
  {
    topo with
    unfenced_bug;
    world = { topo.world with server = Option.map slow topo.world.server };
  }

let sharded_unfenced =
  make "sharded-unfenced" (slow_sharded_world ~unfenced_bug:true)

let sharded_slow = make "sharded-slow" (slow_sharded_world ~unfenced_bug:false)

let sharded_ha = make "sharded-ha" (sharded_world (pair "shard0" "standby0" Ha.Sync))

let buggy_clerk =
  make "buggy"
    { quickstart_world with clients = 1; reqs = 6; prefix = "bug"; blind_client = true }

(* The §6 transfer chain: 4 clients each send one transfer of 100 from
   bankA's source account through bankB's credit to the clearing house.
   Plans crash any of the three banks and cut client-bankA, bankA-bankB and
   bankB-clearing. The stages bring their own queues and servers. *)
let chain =
  make "chain"
    {
      quickstart_world with
      world =
        {
          (World.single "bankA") with
          repos = List.map (fun n -> World.Single n) [ "bankA"; "bankB"; "clearing" ];
          queues = [];
        };
      workload = Chain;
      clients = 4;
      reqs = 1;
      prefix = "t";
    }

let all =
  [
    quickstart;
    quickstart_lossy;
    quickstart_large;
    ha;
    ha_lagged;
    sharded;
    sharded_buggy;
    sharded_unfenced;
    sharded_ha;
    buggy_clerk;
    chain;
  ]

let by_name n = List.find_opt (fun t -> t.name = n) all

(* ---- crash-site sweeps -------------------------------------------------- *)

let crash_sites t =
  Crashpoint.reset ();
  Fun.protect ~finally:Crashpoint.disable (fun () ->
      ignore (build t t.probe);
      Crashpoint.hit_counts ())

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Site names embed the node that reaches them (WAL, TM and routing sites
   are per node); node-less sites kill the entry repository's primary. *)
let default_victim topo site =
  match List.find_opt (contains site) (List.concat_map nodes topo.world.repos) with
  | Some node -> node
  | None -> primary (List.hd topo.world.repos)

let crash_at ~site ~hit ?victim ~recover_after t =
  let victim =
    match victim with Some v -> v | None -> default_victim t.topology site
  in
  build ~armed:(site, hit, victim, recover_after) t t.probe

let crash_fired o ~site =
  let note = "crashpoint " ^ site ^ " " in
  Array.exists
    (function Sched.Fault f -> String.starts_with ~prefix:note f | _ -> false)
    o.trace

type crash = { site : string; hit : int; fired : bool; findings : Audit.finding list }

let sweep ?(only = fun _ -> true) ?victim ~recover_after t =
  let visited = List.filter (fun (site, _) -> only site) (crash_sites t) in
  let crashes =
    List.concat_map
      (fun (site, hits) ->
        List.init hits (fun i ->
            let hit = i + 1 in
            let o = crash_at ~site ~hit ?victim ~recover_after t in
            { site; hit; fired = crash_fired o ~site; findings = o.findings }))
      visited
  in
  (visited, crashes)

(* ---- recorded runs ------------------------------------------------------ *)

type recorded = {
  rec_outcome : outcome;
  rec_metrics : Rrq_obs.Metrics.snapshot;
  rec_trace : string;
}

let run_recorded ?policy ?(trace_capacity = 262144) t plan =
  Rrq_obs.reset ~trace_capacity ();
  Fun.protect ~finally:Rrq_obs.disable (fun () ->
      let o = run ?policy t plan in
      (* The trace auditor is sound only when no fiber can die between its
         durable force and its commit event, i.e. on crash-free plans (see
         [Audit.exactly_once_trace]). It runs while the session is still
         enabled, so it can see the events; its findings join the
         scenario's own. *)
      let auditable =
        List.for_all
          (function Plan.Crash _ -> false | Plan.Partition _ -> true)
          plan.Plan.faults
      in
      let extra =
        if auditable then Audit.run [ Audit.exactly_once_trace () ] else []
      in
      {
        rec_outcome = { o with findings = o.findings @ extra };
        rec_metrics = Rrq_obs.Metrics.snapshot ();
        rec_trace = Rrq_obs.Trace.dump_jsonl ();
      })
