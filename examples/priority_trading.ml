(* Request scheduling by content (paper §11): "Requests may be scheduled
   for the server by priority, request contents (highest dollar amount
   first), submission time, etc."

   A trading desk receives orders with dollar amounts. The institutional
   desk takes only big orders (a content filter) and always the largest
   first (a ranked dequeue); the retail desk drains the rest in FIFO
   order; a compliance officer reads elements non-destructively while they
   wait.

   Run with: dune exec examples/priority_trading.exe *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Envelope = Rrq_core.Envelope

let amount_of env_body = int_of_string env_body

let () =
  let sched = Sched.create () in
  let net = Net.create sched (Rng.create 6) in
  let desk =
    Site.create ~queues:[ ("orders", Qm.default_attrs) ]
      (Net.make_node net "desk")
  in

  let big = Filter.Prop_ge ("amount", 1000) in
  let rank el =
    match Element.prop el "amount" with
    | Some a -> float_of_string a
    | None -> 0.0
  in

  (* Institutional desk: big orders only, largest first. The ranked dequeue
     happens inside the same transactional loop as everything else. *)
  Site.on_boot desk (fun site ->
      Net.spawn_on (Site.node site) ~name:"institutional" (fun () ->
          let qm = Site.qm site in
          let h, _ =
            Qm.register qm ~queue:"orders" ~registrant:"institutional"
              ~stable:false
          in
          let rec loop () =
            Site.with_txn site (fun txn ->
                match
                  Qm.dequeue qm (Tm.txn_id txn) h ~filter:big ~rank Qm.Block
                with
                | Some el ->
                  let env =
                    Envelope.of_parts ~props:el.Element.props el.Element.payload
                  in
                  Printf.printf
                    "  [institutional] t=%.2f executes %s ($%d) LARGEST FIRST\n"
                    (Sched.clock ()) env.Envelope.rid (amount_of env.Envelope.body)
                | None -> ());
            loop ()
          in
          loop ()));

  (* Retail desk: everything under $1000, plain FIFO. *)
  let _retail =
    Server.start desk ~req_queue:"orders" ~name:"retail"
      ~filter:(Filter.Not big) (fun _site _txn env ->
        Printf.printf "  [retail]        t=%.2f executes %s ($%d)\n"
          (Sched.clock ()) env.Envelope.rid (amount_of env.Envelope.body);
        Server.No_reply)
  in

  (* Orders arrive in one burst; note the institutional execution order. *)
  ignore
    (Sched.spawn sched ~name:"traders" (fun () ->
         let qm = Site.qm desk in
         let h, _ =
           Qm.register qm ~queue:"orders" ~registrant:"traders" ~stable:false
         in
         let place rid amount =
           let env =
             Envelope.make ~rid ~client_id:"traders" ~reply_node:"desk"
               ~reply_queue:"orders" (string_of_int amount)
           in
           Printf.printf "[traders] t=%.2f places %s ($%d)\n" (Sched.clock ())
             rid amount;
           ignore
             (Qm.auto_commit qm (fun id ->
                  Qm.enqueue qm id h
                    ~props:
                      (Envelope.props env @ [ ("amount", string_of_int amount) ])
                    env.Envelope.body))
         in
         (* hold both desks back until the book is loaded, then watch the
            institutional desk pick 9000, 5000, 2000 in value order *)
         place "ord-1" 500;
         place "ord-2" 5000;
         place "ord-3" 120;
         place "ord-4" 9000;
         place "ord-5" 2000;
         place "ord-6" 80;
         Sched.sleep 1.0;
         (* compliance reads a waiting element without consuming it *)
         match Qm.elements qm "orders" with
         | el :: _ ->
           Printf.printf
             "[compliance] t=%.2f peeks at eid %Ld without dequeuing\n"
             (Sched.clock ()) el.Element.eid
         | [] -> ()));

  Sched.run sched;
  match Sched.failures sched with
  | [] -> print_endline "priority_trading: OK"
  | (name, e) :: _ ->
    Printf.printf "priority_trading: FIBER FAILURE %s: %s\n" name
      (Printexc.to_string e);
    exit 1
