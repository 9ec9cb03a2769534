module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb
module Site = Rrq_core.Site
module Clerk = Rrq_core.Clerk
module Plain = Rrq_baseline.Plain
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module World = Rrq_check.World

type row = {
  protocol : string;
  condition : string;
  requests : int;
  replies : int;
  lost : int;
  exactly_once : int;
  duplicated : int;
}

type protocol = Queued | At_most_once | At_least_once

let protocol_name = function
  | Queued -> "queued (this paper)"
  | At_most_once -> "plain msg, no retry"
  | At_least_once -> "plain msg, retry"

(* The plain-message server executes the request body in a transaction and
   counts executions per rid, like the queued server does. *)
let plain_handler site txn ~rid _body =
  let kv = Site.kv site in
  let id = Tm.txn_id txn in
  ignore (Kvdb.add kv id ("exec:" ^ rid) 1);
  "done"

let one_run ~protocol ~drop ~crashes ~requests ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create ~drop_rate:drop s (Rng.create seed) in
      let server = if protocol = Queued then World.counting_server 1 else None in
      let world = World.build net { (World.single "backend") with server } in
      let backend = World.site world "backend" in
      let client_node = Net.make_node net "client" in
      if protocol <> Queued then
        Plain.install_server backend ~service:"plain" plain_handler;
      if crashes then begin
        Sched.at s 2.0 (fun () -> Site.crash_restart backend ~after:1.5);
        Sched.at s 6.0 (fun () -> Site.crash_restart backend ~after:1.5)
      end;
      fun () ->
        let rids = List.init requests (fun i -> Printf.sprintf "r%d" (i + 1)) in
        let replies = ref 0 in
        (match protocol with
        | Queued ->
          let clerk, _ =
            Clerk.connect ~client_node ~system:"backend" ~client_id:"alice"
              ~req_queue:"req" ()
          in
          List.iter
            (fun rid ->
              (try
                 ignore (Clerk.send clerk ~rid "work");
                 let rec get n =
                   if n > 20 then ()
                   else begin
                     match Clerk.receive clerk ~timeout:2.0 () with
                     | Some _ -> incr replies
                     | None -> get (n + 1)
                   end
                 in
                 get 0
               with Clerk.Unavailable _ -> ());
              Sched.sleep 0.3)
            rids
        | At_most_once ->
          List.iter
            (fun rid ->
              (match
                 Plain.call_at_most_once client_node ~dst:"backend"
                   ~service:"plain" ~rid "work"
               with
              | Some _ -> incr replies
              | None -> ());
              Sched.sleep 0.3)
            rids
        | At_least_once ->
          List.iter
            (fun rid ->
              (match
                 Plain.call_at_least_once client_node ~dst:"backend"
                   ~service:"plain" ~rid ~attempts:8 "work"
               with
              | Some _ -> incr replies
              | None -> ());
              Sched.sleep 0.3)
            rids);
        (* Let in-flight retries and recovery settle before auditing. *)
        Sched.sleep 20.0;
        let lost, exactly_once, duplicated =
          Rrq_check.Audit.audit_executions [ backend ] ~rids
        in
        (!replies, lost, exactly_once, duplicated))

let run ?(requests = 30) () =
  let conditions =
    [
      ("healthy", 0.0, false);
      ("15% message loss", 0.15, false);
      ("2 backend crashes", 0.0, true);
      ("loss + crashes", 0.15, true);
    ]
  in
  List.concat_map
    (fun (condition, drop, crashes) ->
      List.map
        (fun protocol ->
          let replies, lost, exactly_once, duplicated =
            one_run ~protocol ~drop ~crashes ~requests ~seed:42
          in
          {
            protocol = protocol_name protocol;
            condition;
            requests;
            replies;
            lost;
            exactly_once;
            duplicated;
          })
        [ At_most_once; At_least_once; Queued ])
    conditions

let table rows =
  let t =
    Table.create ~title:"E1: request flow under failures (30 requests each)"
      ~columns:
        [ "condition"; "protocol"; "replies"; "lost"; "exactly-once"; "duplicated" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.condition;
          r.protocol;
          string_of_int r.replies;
          string_of_int r.lost;
          string_of_int r.exactly_once;
          string_of_int r.duplicated;
        ])
    rows;
  t
