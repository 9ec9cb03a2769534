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

(* The body of one server transaction, after the dequeue took [el] through
   handle [h]: decode, handle, enqueue the result. The caller commits. *)
let execute site txn ~registrant h el handler =
  let queue = Qm.handle_queue h in
  let t0 =
    if Rrq_obs.enabled () && Sched.in_fiber () then Sched.clock () else 0.0
  in
  let env = Envelope.of_string el.Element.payload in
  if Rrq_obs.enabled () then
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Server_exec
         {
           server = registrant;
           rid = env.Envelope.rid;
           txid = Rrq_txn.Txid.to_string (Tm.txn_id txn);
         });
  let emit ~dst ~queue out =
    Site.remote_enqueue site txn ~dst ~queue ~props:(Envelope.props out)
      (Envelope.to_string out)
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

(* One server transaction: dequeue - handle - enqueue result - commit. An
   abort, or a poisonous request (e.g. an undecodable payload), returns the
   request to its queue; the retry limit shunts it to the error queue. *)
let process_one site ~req_queue ~registrant ?filter ~wait handler =
  let qm = Site.qm site in
  let h, _ = Qm.register qm ~queue:req_queue ~registrant ~stable:false in
  match
    Site.with_txn site (fun txn ->
        match Qm.dequeue qm (Tm.txn_id txn) h ?filter wait with
        | None -> `Empty
        | Some el -> execute site txn ~registrant h el handler)
  with
  | outcome -> outcome
  | exception e when Rrq_util.Swallow.nonfatal e -> `Aborted

(* The same over a queue set (paper 9): take the globally best element
   across several queues. Unlike [Qm.dequeue], [Qm.dequeue_set] takes no
   strict-FIFO lock and does not check for a stopped queue. *)
let process_one_set site ~req_queues ~registrant ?filter ~wait handler =
  let qm = Site.qm site in
  let hs =
    List.map
      (fun q -> fst (Qm.register qm ~queue:q ~registrant ~stable:false))
      req_queues
  in
  match
    Site.with_txn site (fun txn ->
        match Qm.dequeue_set qm (Tm.txn_id txn) hs ?filter wait with
        | None -> `Empty
        | Some (h, el) -> execute site txn ~registrant h el handler)
  with
  | outcome -> outcome
  | exception e when Rrq_util.Swallow.nonfatal e -> `Aborted

let serve t step () =
  let rec loop () =
    (match step () with
    | `Done -> t.n_processed <- t.n_processed + 1
    | `Empty -> ()
    | `Aborted ->
      t.n_aborted <- t.n_aborted + 1;
      Sched.sleep 0.01 (* brief backoff so abort storms cannot livelock *));
    loop ()
  in
  loop ()

(* Spawn [threads] serving fibers, registrants [base:1] .. [base:threads].
   With [on_boot] they are re-spawned whenever the site reboots; without,
   they serve this incarnation only: a crash kills them and nothing revives
   them. The HA layer uses the latter to run servers only while the hosting
   site is the serving primary — its own role logic decides when (and on
   which node) to start them again. *)
let spawn ~on_boot site ~threads ~base step =
  let t = { n_processed = 0; n_aborted = 0 } in
  let start_threads site =
    for i = 1 to threads do
      let registrant = Printf.sprintf "%s:%d" base i in
      Net.spawn_on (Site.node site) ~name:registrant
        (serve t (step site ~registrant))
    done
  in
  if on_boot then Site.on_boot site start_threads else start_threads site;
  t

let start_queue ~on_boot site ~req_queue ?(threads = 1) ?filter ?name handler =
  spawn ~on_boot site ~threads
    ~base:(Option.value name ~default:("srv:" ^ req_queue))
    (fun site ~registrant () ->
      process_one site ~req_queue ~registrant ?filter ~wait:Qm.Block handler)

let start = start_queue ~on_boot:true
let start_here = start_queue ~on_boot:false

let start_set site ~req_queues ?(threads = 1) ?filter ?name handler =
  spawn ~on_boot:true site ~threads
    ~base:
      (Option.value name ~default:("srvset:" ^ String.concat "+" req_queues))
    (fun site ~registrant () ->
      process_one_set site ~req_queues ~registrant ?filter ~wait:Qm.Block
        handler)

let processed t = t.n_processed
let aborted t = t.n_aborted
