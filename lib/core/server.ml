module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter

type result =
  | Reply of string
  | Reply_env of Envelope.t
  | Forward of { dst : string; queue : string; env : Envelope.t }
  | No_reply
type handler = Site.t -> Tm.txn -> Envelope.t -> result

type t = { mutable n_processed : int; mutable n_aborted : int }

(* One server transaction over a queue set (paper §9; one queue is a set
   of one): dequeue - read the envelope off the element - handle - enqueue
   the result - commit. An abort, or a poisonous request (e.g. an element
   with no envelope header), returns the request to its queue; the retry
   limit shunts it to the error queue. *)
let process_one site ~req_queues ~registrant ?filter ~wait handler =
  let qm = Site.qm site in
  let hs =
    List.map
      (fun queue -> fst (Qm.register qm ~queue ~registrant ~stable:false))
      req_queues
  in
  let execute txn (h, el) =
    let queue = Qm.handle_queue h in
    let t0 =
      if Rrq_obs.enabled () && Sched.in_fiber () then Sched.clock () else 0.0
    in
    let env = Envelope.of_parts ~props:el.Element.props el.Element.payload in
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Server_exec
           {
             server = registrant;
             queue;
             rid = env.Envelope.rid;
             txid = Rrq_txn.Txid.to_string (Tm.txn_id txn);
           });
    let emit ~dst ~queue out =
      Site.remote_enqueue site txn ~dst ~queue ~props:(Envelope.props out)
        out.Envelope.body
    in
    (match handler site txn env with
    | No_reply -> ()
    | Reply body ->
      let reply = Envelope.reply_to env ~body in
      emit ~dst:env.Envelope.reply_node ~queue:env.Envelope.reply_queue reply
    | Reply_env reply ->
      emit ~dst:env.Envelope.reply_node ~queue:env.Envelope.reply_queue reply
    | Forward { dst; queue; env = out } -> emit ~dst ~queue out);
    if Rrq_obs.enabled () && Sched.in_fiber () then
      Rrq_obs.Metrics.observe ("server.service:" ^ queue) (Sched.clock () -. t0);
    (* Crash site: handler ran and the reply is buffered, but the server
       transaction has not committed yet. *)
    Rrq_sim.Crashpoint.reach ("server.handled:" ^ queue);
    `Done
  in
  match
    Site.with_txn site (fun txn ->
        match Qm.dequeue_set qm (Tm.txn_id txn) hs ?filter wait with
        | None -> `Empty
        | Some taken -> execute txn taken)
  with
  | outcome -> outcome
  | exception e when Rrq_util.Swallow.nonfatal e -> `Aborted

(* Spawn [threads] serving fibers, registrants [base:1] .. [base:threads]
   ([name] overrides [base]). With [on_boot] they are re-spawned whenever
   the site reboots; without, they serve this incarnation only: a crash
   kills them and nothing revives them. The HA layer uses the latter to
   run servers only while the hosting site is the serving primary — its
   own role logic decides when (and on which node) to start them again. *)
let spawn ~on_boot ~base site ~req_queues ?(threads = 1) ?filter ?name handler =
  let t = { n_processed = 0; n_aborted = 0 } in
  let base = Option.value name ~default:base in
  let rec serve site ~registrant () =
    (match
       process_one site ~req_queues ~registrant ?filter ~wait:Qm.Block handler
     with
    | `Done -> t.n_processed <- t.n_processed + 1
    | `Empty -> ()
    | `Aborted ->
      t.n_aborted <- t.n_aborted + 1;
      Sched.sleep 0.01 (* brief backoff so abort storms cannot livelock *));
    serve site ~registrant ()
  in
  let start_threads site =
    for i = 1 to threads do
      let registrant = Printf.sprintf "%s:%d" base i in
      Net.spawn_on (Site.node site) ~name:registrant (serve site ~registrant)
    done
  in
  if on_boot then Site.on_boot site start_threads else start_threads site;
  t

let start site ~req_queue =
  spawn ~on_boot:true ~base:("srv:" ^ req_queue) site ~req_queues:[ req_queue ]

let start_here site ~req_queue =
  spawn ~on_boot:false ~base:("srv:" ^ req_queue) site ~req_queues:[ req_queue ]

let start_set site ~req_queues =
  spawn ~on_boot:true ~base:("srvset:" ^ String.concat "+" req_queues) site
    ~req_queues

let processed t = t.n_processed
let aborted t = t.n_aborted
