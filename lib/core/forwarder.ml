module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element

(* How long the daemon backs off after a failed move. *)
let retry_every = 1.0

let start site ~local_queue ~dst ~remote_queue =
  Site.on_boot site (fun site ->
      Net.spawn_on (Site.node site)
        ~name:(Printf.sprintf "fwd:%s->%s/%s" local_queue dst remote_queue)
        (fun () ->
          let qm = Site.qm site in
          let h, _ =
            Qm.register qm ~queue:local_queue ~registrant:"forwarder"
              ~stable:false
          in
          let rec loop () =
            (match
               Site.with_txn site (fun txn ->
                   match Qm.dequeue qm (Tm.txn_id txn) h Qm.Block with
                   | None -> ()
                   | Some el ->
                     Site.remote_enqueue site txn ~dst ~queue:remote_queue
                       ~props:el.Element.props
                       ~priority:el.Element.priority el.Element.payload)
             with
            | () -> ()
            | exception Site.Aborted _ ->
              (* Remote unreachable (or conflict): the element went back to
                 the local queue; wait out the partition. *)
              Sched.sleep_background retry_every
            | exception e when Rrq_util.Swallow.nonfatal e ->
              Sched.sleep_background retry_every);
            loop ()
          in
          loop ()))

let forwarded site ~local_queue = snd (Qm.counts (Site.qm site) local_queue)
