(* B15: failover latency. A clerk talks to an HA pair; the primary is
   killed mid-conversation and the virtual clock measures the gap from
   the kill to the first reply the clerk extracts from the promoted
   backup. The sweep crosses the shipping mode (Sync plus several lagged
   batch intervals) with the standby temperature: a warm standby replays
   shipped records as they arrive, a cold one only stores them and pays a
   replay scan at promotion time. The replay rate is set deliberately low
   so the scan is visible at this log size — the point is the shape
   (warm beats cold, and by how much), not the absolute seconds. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Rng = Rrq_util.Rng
module Site = Rrq_core.Site
module Ha = Rrq_core.Ha
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Table = Rrq_util.Table
module Runner = Rrq_check.Runner
module World = Rrq_check.World

type row = {
  mode : string;
  standby : string;
  warmup : int;
  ship_batches : int;
  applied_bytes : int;
  failover_s : float;
}

(* Slow enough that a few tens of kilobytes of shipped log cost the cold
   standby whole virtual seconds at promotion. *)
let replay_bytes_per_sec = 4.0 *. 1024.

let mode_label = function
  | Ha.Sync -> "sync"
  | Ha.Lagged d -> Printf.sprintf "lagged %.2fs" d

let one_run ~mode ~cold ~warmup ~seed =
  Runner.run_scenario (fun s ->
      let net = Net.create ~latency:0.005 s (Rng.create seed) in
      let pair =
        { World.primary = "primary"; standby = "backup"; mode; sync_latency = 0.0;
          cold = (if cold then Some replay_bytes_per_sec else None) }
      in
      let world =
        World.build net
          {
            (World.single "primary") with
            repos = [ Pair pair ];
            server = World.counting_server 2;
          }
      in
      let client_node = Net.make_node net "client" in
      fun () ->
        ignore (Runner.await (fun () -> World.ready world));
        (* A short RPC timeout keeps the clerk's outage-rotation cycle well
           under the latencies being compared, so the measurement resolves
           the warm/cold difference instead of quantizing it away. *)
        let clerk, _ =
          Clerk.connect ~client_node ~system:"primary" ~backups:[ "backup" ]
            ~client_id:"b15" ~req_queue:"req" ~rpc_timeout:0.25 ~retries:8 ()
        in
        (* One full conversation turn, riding the clerk's backup rotation
           through any outage. *)
        let request rid =
          let rec send n =
            try ignore (Clerk.send clerk ~rid ("work:" ^ rid))
            with Clerk.Unavailable _ when n > 0 ->
              Sched.sleep 0.25;
              send (n - 1)
          in
          send 120;
          let rec recv () =
            let reply =
              try Clerk.receive clerk ~timeout:2.0 ()
              with Clerk.Unavailable _ ->
                Sched.sleep 0.25;
                None
            in
            if reply = None then recv ()
          in
          recv ()
        in
        for i = 1 to warmup do
          request (Printf.sprintf "warm-%d" i)
        done;
        (* Let a lagged shipper drain, so the kill measures takeover time
           rather than the loss of the warmup tail. *)
        (match mode with
        | Ha.Lagged d -> Sched.sleep ((2.0 *. d) +. 0.1)
        | Ha.Sync -> ());
        let batches = Ha.ship_batches (World.ha world "primary") in
        let applied = Ha.applied_bytes (World.ha world "backup") in
        let killed_at = Sched.clock () in
        Site.crash (World.site world "primary");
        request "post-failover";
        {
          mode = mode_label mode;
          standby = (if cold then "cold" else "warm");
          warmup;
          ship_batches = batches;
          applied_bytes = applied;
          failover_s = Sched.clock () -. killed_at;
        })

let modes = [ Ha.Sync; Ha.Lagged 0.1; Ha.Lagged 0.5; Ha.Lagged 1.0 ]

let run ?(warmup = 40) ?(seed = 71) () =
  List.concat_map
    (fun mode ->
      [
        one_run ~mode ~cold:false ~warmup ~seed;
        one_run ~mode ~cold:true ~warmup ~seed;
      ])
    modes

let table rows =
  let t =
    Table.create
      ~title:
        "B15: failover latency - primary kill to first post-failover reply"
      ~columns:
        [ "shipping mode"; "standby"; "warmup requests"; "shipped batches";
          "applied bytes"; "kill -> first reply (s)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.mode;
          r.standby;
          string_of_int r.warmup;
          string_of_int r.ship_batches;
          string_of_int r.applied_bytes;
          Printf.sprintf "%.3f" r.failover_s;
        ])
    rows;
  t
