(* E3: the two implementations of interactive requests (paper §8) compared
   on the properties the paper discusses: how many transactions a
   conversation costs, whether a server-side failure re-solicits input from
   the user, and whether the request can still be cancelled after the first
   intermediate output. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Qm = Rrq_qm.Qm
module Server = Rrq_core.Server
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Interactive = Rrq_core.Interactive
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module World = Rrq_check.World

type row = {
  mode : string;
  transactions : int;  (** Committed transactions per conversation. *)
  user_prompts : int;  (** Times the user was actually asked. *)
  reprompts_after_abort : int;  (** Extra prompts caused by the injected failure. *)
  cancellable_after_output : bool;
  completed : bool;
}

(* Both conversations run on one "backend" repository with a "conv"
   queue. *)
let conv_world =
  { (World.single "backend") with queues = [ ("conv", Qm.default_attrs) ] }

(* Pseudo-conversational: 2 intermediate turns; the second leg's first
   execution aborts. Inputs ride in the requests, so the retry re-asks
   nothing. *)
let pseudo_run ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let backend = World.site (World.build net conv_world) "backend" in
      let leg2_attempts = ref 0 in
      let _ =
        Interactive.pseudo_server backend ~req_queue:"conv"
          (fun _site _txn env ->
            match env.Envelope.step with
            | 0 -> Interactive.Intermediate { output = "q1"; scratch = "s1" }
            | 1 ->
              incr leg2_attempts;
              if !leg2_attempts = 1 then failwith "injected leg-2 abort";
              Interactive.Intermediate
                { output = "q2"; scratch = env.Envelope.scratch ^ "+a1" }
            | _ -> Interactive.Final ("done:" ^ env.Envelope.scratch))
      in
      let client_node = Net.make_node net "client" in
      fun () ->
        let prompts = ref 0 in
        let clerk, _ =
          Clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
            ~req_queue:"conv" ()
        in
        let final =
          Interactive.pseudo_client clerk ~rid:"c1" ~body:"go"
            ~respond:(fun ~step:_ ~output:_ ->
              incr prompts;
              "ans")
        in
        (* Cancellability probe in a fresh conversation: after the first
           output, the original request element is already consumed by the
           committed first leg, so Kill_element cannot cancel it. *)
        let clerk2, _ =
          Clerk.connect ~client_node ~system:"backend" ~client_id:"bob"
            ~req_queue:"conv" ()
        in
        ignore (Clerk.send clerk2 ~rid:"c2" "go");
        let cancellable =
          match Clerk.receive clerk2 () with
          | Some _first_output -> Clerk.cancel_last_request clerk2
          | None -> false
        in
        {
          mode = "pseudo-conversational (8.2)";
          transactions = 3;
          user_prompts = !prompts;
          reprompts_after_abort = !prompts - 2;
          cancellable_after_output = cancellable;
          completed = final <> None;
        })

(* Single-transaction conversation: 2 prompts via direct messages; the
   first execution aborts after both inputs; re-execution replays them from
   the client's durable I/O log. *)
let single_txn_run ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create s (Rng.create seed) in
      let attempts = ref 0 in
      let handler site _txn env =
        let c = Interactive.console site env ~display:"client" in
        let a1 = Interactive.ask c "q1" in
        let a2 = Interactive.ask c "q2" in
        if env.Envelope.rid = "c1" then begin
          incr attempts;
          if !attempts = 1 then failwith "injected abort after inputs"
        end;
        Server.Reply (Printf.sprintf "done:%s,%s" a1 a2)
      in
      let server = Some { World.queue = "conv"; threads = 1; handler } in
      ignore (World.build net { conv_world with server });
      let client_node = Net.make_node net "client" in
      let hesitating = ref false in
      let display =
        Interactive.install_display client_node ~user:(fun ~rid ~seq ~prompt:_ ->
            if rid = "c2" && seq = 2 then begin
              (* the user hesitates: window for cancellation *)
              hesitating := true;
              Sched.sleep 3.0
            end;
            Printf.sprintf "a%d" seq)
      in
      fun () ->
        let clerk, _ =
          Clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
            ~req_queue:"conv" ()
        in
        let reply = Clerk.transceive clerk ~rid:"c1" ~timeout:20.0 "go" in
        let prompts_c1 = Interactive.display_asks display in
        (* Cancellability probe: cancel while the user hesitates on q2. *)
        let clerk2, _ =
          Clerk.connect ~client_node ~system:"backend" ~client_id:"bob"
            ~req_queue:"conv" ()
        in
        let cancel_result = ref false in
        ignore
          (Sched.fork ~name:"canceller" (fun () ->
               ignore (Runner.await ~timeout:30.0 (fun () -> !hesitating));
               cancel_result := Clerk.cancel_last_request clerk2));
        ignore (Clerk.send clerk2 ~rid:"c2" "go");
        (* wait for the cancel to land; no reply will come *)
        ignore (Runner.await ~timeout:30.0 (fun () -> !cancel_result));
        Sched.sleep 5.0;
        {
          mode = "single-txn conversation (8.3)";
          transactions = 1;
          user_prompts = prompts_c1;
          reprompts_after_abort = prompts_c1 - 2;
          cancellable_after_output = !cancel_result;
          completed = reply <> None;
        })

let run () = [ pseudo_run ~seed:41; single_txn_run ~seed:43 ]

let table rows =
  let t =
    Table.create
      ~title:
        "E3: interactive requests - pseudo-conversational vs single transaction (2 prompts, 1 injected abort)"
      ~columns:
        [ "implementation"; "txns/conv"; "user prompts"; "re-prompts after abort";
          "cancellable after 1st output"; "completed" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.mode;
          string_of_int r.transactions;
          string_of_int r.user_prompts;
          string_of_int r.reprompts_after_abort;
          (if r.cancellable_after_output then "yes" else "no");
          (if r.completed then "yes" else "no");
        ])
    rows;
  t
