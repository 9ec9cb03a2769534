module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched
module Qm = Rrq_qm.Qm

type t = {
  a_site : Site.t;
  queue : string;
  handler : Server.handler;
  min_threads : int;
  max_threads : int;
  server : Server.t;
  mutable surge_total : int;
  mutable surge_active : int;
  mutable surge_processed : int;
}

let surge_loop t n () =
  let registrant = Printf.sprintf "surge:%s:%d" t.queue n in
  let rec loop () =
    match
      Server.process_one t.a_site ~req_queues:[ t.queue ] ~registrant
        ~wait:Qm.No_wait t.handler
    with
    | `Done ->
      t.surge_processed <- t.surge_processed + 1;
      loop ()
    | `Aborted ->
      Sched.sleep 0.01;
      loop ()
    | `Empty -> t.surge_active <- t.surge_active - 1 (* drain done: retire *)
  in
  loop ()

let spawn_surges t =
  while t.surge_active < t.max_threads - t.min_threads do
    t.surge_active <- t.surge_active + 1;
    t.surge_total <- t.surge_total + 1;
    Net.spawn_on (Site.node t.a_site)
      ~name:(Printf.sprintf "surge:%s:%d" t.queue t.surge_total)
      (surge_loop t t.surge_total)
  done

let install site ~req_queue ~min_threads ~max_threads ~scale_at handler =
  Qm.create_queue (Site.qm site)
    ~attrs:{ Qm.default_attrs with alert_threshold = Some scale_at }
    req_queue;
  let server = Server.start site ~req_queue ~threads:min_threads handler in
  let t =
    {
      a_site = site;
      queue = req_queue;
      handler;
      min_threads;
      max_threads;
      server;
      surge_total = 0;
      surge_active = 0;
      surge_processed = 0;
    }
  in
  Site.on_boot site (fun site ->
      t.surge_active <- 0 (* surge fibers died with the node *);
      Qm.set_alert_callback (Site.qm site) (fun qn _depth ->
          if qn = req_queue then spawn_surges t));
  t

let surge_spawned t = t.surge_total
let active_surge t = t.surge_active
let processed t = Server.processed t.server + t.surge_processed
