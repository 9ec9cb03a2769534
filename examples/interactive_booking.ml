(* Interactive requests (paper §8): a seat-booking conversation implemented
   both ways.

   First as a pseudo-conversational request (§8.2): each prompt/answer pair
   is a reply/request leg, the conversation state rides in the scratch pad,
   and a back-end crash between legs loses nothing.

   Then as a single-transaction conversation (§8.3): the server asks the
   client's display directly from inside one transaction; we inject an
   abort after the answers and show the re-execution replaying the logged
   inputs without bothering the user again.

   Run with: dune exec examples/interactive_booking.exe *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Server = Rrq_core.Server
module Envelope = Rrq_core.Envelope
module Interactive = Rrq_core.Interactive

let () =
  let sched = Sched.create () in
  let net = Net.create sched (Rng.create 3) in
  let backend =
    Site.create
      ~queues:
        [ ("book-pseudo", Qm.default_attrs); ("book-conv", Qm.default_attrs) ]
      ~stale_timeout:2.0
      (Net.make_node net "backend")
  in
  let client_node = Net.make_node net "client" in

  (* --- pseudo-conversational server (8.2) --- *)
  let _ =
    Interactive.pseudo_server backend ~req_queue:"book-pseudo"
      (fun site txn env ->
        match env.Envelope.step with
        | 0 ->
          Printf.printf "  [server] leg 1 (txn commits): ask for a row\n";
          Interactive.Intermediate { output = "which row?"; scratch = "flight=BA42" }
        | 1 ->
          Printf.printf "  [server] leg 2 (txn commits): ask for a seat\n";
          Interactive.Intermediate
            {
              output = "which seat?";
              scratch = env.Envelope.scratch ^ ";row=" ^ env.Envelope.body;
            }
        | _ ->
          let booking = env.Envelope.scratch ^ ";seat=" ^ env.Envelope.body in
          Kvdb.put (Site.kv site) (Tm.txn_id txn) "booking" booking;
          Printf.printf "  [server] leg 3: commit booking %s\n" booking;
          Interactive.Final ("BOOKED " ^ booking))
  in

  (* --- single-transaction conversational server (8.3) --- *)
  let display =
    Interactive.install_display client_node ~user:(fun ~rid:_ ~seq ~prompt ->
        Printf.printf "  [user] prompt %d: %S -> answering\n" seq prompt;
        match seq with 1 -> "14" | _ -> "A")
  in
  let attempts = ref 0 in
  let _ =
    Server.start backend ~req_queue:"book-conv" (fun site txn env ->
        let console = Interactive.console site env ~display:"client" in
        let row = Interactive.ask console "which row?" in
        let seat = Interactive.ask console "which seat?" in
        incr attempts;
        if !attempts = 1 then begin
          print_endline "  [chaos] transaction aborts after the answers!";
          failwith "injected abort"
        end;
        let booking = Printf.sprintf "flight=BA42;row=%s;seat=%s" row seat in
        Kvdb.put (Site.kv site) (Tm.txn_id txn) "booking2" booking;
        Server.Reply ("BOOKED " ^ booking))
  in

  ignore
    (Sched.spawn sched ~group:"client" ~name:"alice" (fun () ->
         print_endline "=== pseudo-conversational booking (8.2) ===";
         let clerk, _ =
           Clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
             ~req_queue:"book-pseudo" ()
         in
         (* Crash the backend between legs 1 and 2. *)
         Sched.at sched (Sched.clock () +. 0.1) (fun () ->
             print_endline "  [chaos] backend crashes between legs!";
             Site.crash_restart backend ~after:1.5);
         let respond ~step ~output =
           Printf.printf "  [user] leg %d asks %S\n" step output;
           match output with "which row?" -> "12" | _ -> "C"
         in
         (match
            Interactive.pseudo_client clerk ~rid:"bk1" ~body:"book a seat"
              ~respond
          with
         | Some reply -> Printf.printf "[client] final: %S\n" reply.Envelope.body
         | None -> print_endline "[client] conversation failed");

         print_endline "=== single-transaction booking (8.3) ===";
         let clerk2, _ =
           Clerk.connect ~client_node ~system:"backend" ~client_id:"alice2"
             ~req_queue:"book-conv" ()
         in
         (match Clerk.transceive clerk2 ~rid:"bk2" ~timeout:30.0 "book a seat" with
         | Some reply -> Printf.printf "[client] final: %S\n" reply.Envelope.body
         | None -> print_endline "[client] conversation failed");
         Printf.printf
           "[audit] user prompted %d times (2 questions, despite 2 executions)\n"
           (Interactive.display_asks display)));

  Sched.run sched;
  match Sched.failures sched with
  | [] -> print_endline "interactive_booking: OK"
  | (name, e) :: _ ->
    Printf.printf "interactive_booking: FIBER FAILURE %s: %s\n" name
      (Printexc.to_string e);
    exit 1
