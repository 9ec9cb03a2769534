(* The one world builder. A world description lists the repositories (a
   single site or an HA pair each), the optional shard map, the queues,
   the janitor's stale timeout, the device latency and an optional server;
   [build] boots it on the caller's network in one fixed order, and the
   readers answer what callers ask of a built world. *)

module Net = Rrq_net.Net
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Ha = Rrq_core.Ha
module Shard = Rrq_core.Shard

type pair = {
  primary : string;
  standby : string;
  mode : Ha.mode;
  sync_latency : float;
  cold : float option;
}

type repository = Single of string | Pair of pair
type shards = { map : Shard.map; untag_forward_bug : bool }
type server = { queue : string; threads : int; handler : Server.handler }

type t = {
  repos : repository list;
  shards : shards option;
  queues : (string * Qm.attrs) list;
  stale_timeout : float;
  sync_latency : float;
  server : server option;
}

let single name =
  {
    repos = [ Single name ];
    shards = None;
    queues = [ ("req", Qm.default_attrs) ];
    stale_timeout = 3.0;
    sync_latency = 0.0;
    server = None;
  }

let counting_server threads =
  Some { queue = "req"; threads; handler = Audit.counting_handler }

(* A built repository: its sites by node name, and its HA roles (primary,
   standby) when it is a pair. *)
type built = { b_sites : (string * Site.t) list; b_pair : (Ha.t * Ha.t) option }
type world = { built : built list; started : Server.t list ref }

let build net w =
  let started = ref [] in
  let create ~sync_latency name =
    Site.create ~queues:w.queues ~stale_timeout:w.stale_timeout
      (Net.make_node ~sync_latency net name)
  in
  let serve ~here site =
    let start = if here then Server.start_here else Server.start in
    Option.iter
      (fun s ->
        started :=
          start site ~req_queue:s.queue ~threads:s.threads s.handler :: !started)
      w.server
  in
  let route site =
    Option.iter
      (fun sh ->
        ignore (Shard.attach ~untag_forward_bug:sh.untag_forward_bug site sh.map))
      w.shards
  in
  let boot = function
    | Single name ->
      let site = create ~sync_latency:w.sync_latency name in
      serve ~here:false site;
      route site;
      { b_sites = [ (name, site) ]; b_pair = None }
    | Pair p ->
      let site_p = create ~sync_latency:p.sync_latency p.primary in
      let site_b = create ~sync_latency:p.sync_latency p.standby in
      (* Servers run only on the serving node, for its current
         incarnation: the role protocol decides when a node serves. *)
      let on_serving ha = serve ~here:true (Ha.site ha) in
      let ha_p =
        Ha.attach ~mode:p.mode ~on_serving site_p ~peer:p.standby ~role:Ha.Primary
      in
      let ha_b =
        Ha.attach ~mode:p.mode ~cold:(p.cold <> None) ?replay_bytes_per_sec:p.cold
          ~on_serving site_b ~peer:p.primary ~role:Ha.Standby
      in
      route site_p;
      route site_b;
      {
        b_sites = [ (p.primary, site_p); (p.standby, site_b) ];
        b_pair = Some (ha_p, ha_b);
      }
  in
  { built = List.map boot w.repos; started }

let sites w = List.concat_map (fun b -> b.b_sites) w.built
let site w name = List.assoc name (sites w)
let pairs w = List.filter_map (fun b -> b.b_pair) w.built

let authoritative w =
  List.map
    (fun b ->
      match b.b_pair with
      | Some (ha_p, ha_b) -> Ha.site (if Ha.is_serving ha_b then ha_b else ha_p)
      | None -> snd (List.hd b.b_sites))
    w.built

let ha w name =
  List.find (fun ha -> Site.site_name (Ha.site ha) = name)
    (List.concat_map (fun (ha_p, ha_b) -> [ ha_p; ha_b ]) (pairs w))

let failovers w =
  List.fold_left
    (fun n (ha_p, ha_b) -> n + Ha.failovers ha_p + Ha.failovers ha_b)
    0 (pairs w)

let ready w =
  List.for_all (fun (ha_p, _) -> Ha.is_serving ha_p && Ha.shipping ha_p) (pairs w)

let servers w = List.rev !(w.started)
