(* B13: sharded multi-repository scale-out. A fixed clerk population (16
   clients, ids chosen so their routing keys hash perfectly evenly) drives
   the same total load against 1, 2 and 4 shard repositories. Each shard
   node's disk charges [sync_latency] virtual seconds per device flush and
   serializes them, so with one shard every flush in the system queues on
   one device (group commit lets concurrent forces share one); with N
   shards the flushes run on N devices in parallel.
   Commits/s is the committed-transaction count from the [Rrq_obs]
   registry (2PC commits plus auto-commits, summed over shards) divided by
   the virtual time the clerk load took.

   The sweep crosses the shard count with the reply-queue placement:
   "co-located" is the plain map, whose rule places each client's reply
   queue on the shard owning its request key (one client's whole
   conversation lives on one repository); "scattered" pins each reply
   queue to the shard its name hashes to, and the ids are chosen so that
   is never its request key's shard, so every request finishes with a
   cross-shard 2PC reply enqueue. Co-located scaling is near-linear (the
   headline); the scattered rows price the cross-shard 2PC (two extra log
   forces per request — prepare and commit at the remote participant). *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Shard = Rrq_core.Shard
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module World = Rrq_check.World

type row = {
  shards : int;
  placement : string;
  clients : int;
  requests : int;
  forwards : int;
  commits : int;
  elapsed_s : float;
  commits_per_s : float;
  speedup : float;
}

(* One WAL force occupies a shard's disk for 5 virtual ms; messages cost
   0.5ms. The gap keeps the log force the bottleneck, which is the claim
   under test — shards multiply force bandwidth, not network bandwidth. *)
let sync_latency = 0.005
let net_latency = 0.0005

(* Client ids picked (by exhaustive search over the real FNV-1a placement)
   so that any prefix of 8 or the full 16 spreads both the request keys
   [req#<id>] and the reply queues [reply.<id>] perfectly evenly across 2
   and across 4 shards — and never co-locates a client's request key with
   its reply queue. Pinned by name, every request is a cross-shard 2PC
   (the scattered worst case); the plain map co-locates them. *)
let client_ids =
  [ "b0"; "b1"; "b2"; "b3"; "b4"; "b5"; "b6"; "b7"; "b8"; "b9"; "b10";
    "b11"; "b12"; "b13"; "b102"; "b103" ]

let shard_names n = List.init n (fun i -> Printf.sprintf "s%d" i)

let map_of ~colocated ~ids n =
  let base =
    {
      Shard.version = 1;
      shards = shard_names n;
      backups = [];
      sharded_queues = [ "req" ];
      pins = [];
    }
  in
  if colocated then base
  else
    (* A map with no sharded queue places every queue by its name. *)
    let by_name = { base with Shard.sharded_queues = [] } in
    {
      base with
      Shard.pins =
        List.map
          (fun id ->
            let q = Shard.reply_queue id in
            (q, Shard.owner by_name q))
          ids;
    }

let one_run ~colocated ~shards:n ~clients ~reqs ~seed =
  Rrq_obs.reset ();
  Fun.protect ~finally:Rrq_obs.disable (fun () ->
      Runner.run_scenario (fun s ->
          let net = Net.create ~latency:net_latency s (Rng.create seed) in
          let ids = List.filteri (fun i _ -> i < clients) client_ids in
          let smap = map_of ~colocated ~ids n in
          let repos = List.map (fun name -> World.Single name) smap.Shard.shards in
          let shards = Some { World.map = smap; untag_forward_bug = false } in
          let server = World.counting_server 8 in
          ignore
            (World.build net
               { (World.single "s0") with repos; shards; sync_latency; server });
          let client_nodes =
            List.map (fun id -> (id, Net.make_node net ("c-" ^ id))) ids
          in
          fun () ->
            let done_count = ref 0 in
            let t0 = Sched.clock () in
            let before = Rrq_obs.Metrics.snapshot () in
            List.iter
              (fun (client_id, client_node) ->
                ignore
                  (Sched.fork ~name:("load-" ^ client_id) (fun () ->
                       let clerk, _ =
                         Clerk.connect ~client_node ~system:"s0"
                           ~shard_map:smap ~client_id ~req_queue:"req"
                           ~retries:8 ()
                       in
                       for r = 1 to reqs do
                         let rid = Printf.sprintf "%s-%d" client_id r in
                         ignore (Clerk.send clerk ~rid ("work:" ^ rid));
                         let rec recv () =
                           match Clerk.receive clerk ~timeout:5.0 () with
                           | Some env
                             when env.Envelope.kind <> "intermediate"
                                  && env.Envelope.rid = rid ->
                             ()
                           | _ -> recv ()
                         in
                         recv ()
                       done;
                       incr done_count)))
              client_nodes;
            ignore
              (Runner.await ~timeout:3000.0 (fun () ->
                   !done_count = clients));
            let elapsed = Sched.clock () -. t0 in
            let d =
              Rrq_obs.Metrics.diff ~before
                ~after:(Rrq_obs.Metrics.snapshot ())
            in
            let sum key_of =
              List.fold_left
                (fun acc name ->
                  acc + Rrq_obs.Metrics.find_counter d (key_of name))
                0 smap.Shard.shards
            in
            let commits =
              sum (fun name -> "tm.commits:" ^ name)
              + sum (fun name -> "qm.auto_commits:qm@" ^ name)
            in
            let forwards = sum (fun name -> "shard.forwards:" ^ name) in
            {
              shards = n;
              placement =
                (if n = 1 then "(single)"
                 else if colocated then "co-located"
                 else "scattered");
              clients;
              requests = clients * reqs;
              forwards;
              commits;
              elapsed_s = elapsed;
              commits_per_s = float_of_int commits /. elapsed;
              speedup = 1.0 (* filled in by [run] against the 1-shard row *);
            }))

let run ?(clients = 16) ?(reqs = 25) ?(seed = 113) () =
  let clients = min clients (List.length client_ids) in
  (* At one shard both placements are the same configuration (everything is
     local); the single base row anchors both speedup series. *)
  let base = one_run ~colocated:true ~shards:1 ~clients ~reqs ~seed in
  let sweep colocated =
    List.map (fun n -> one_run ~colocated ~shards:n ~clients ~reqs ~seed) [ 2; 4 ]
  in
  let rows = (base :: sweep true) @ sweep false in
  List.map
    (fun r -> { r with speedup = r.commits_per_s /. base.commits_per_s })
    rows

let table rows =
  let t =
    Table.create
      ~title:
        "B13: sharded scale-out - fixed clerk load vs shard count (virtual \
         time)"
      ~columns:
        [ "shards"; "reply placement"; "clients"; "requests"; "forwards";
          "commits"; "elapsed (s)"; "commits/s"; "speedup" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.shards;
          r.placement;
          string_of_int r.clients;
          string_of_int r.requests;
          string_of_int r.forwards;
          string_of_int r.commits;
          Printf.sprintf "%.2f" r.elapsed_s;
          Printf.sprintf "%.1f" r.commits_per_s;
          Printf.sprintf "%.2fx" r.speedup;
        ])
    rows;
  t
