(* The request-path benchmark's workloads. One rep builds a fresh topology
   in a fresh simulated world, connects 64 clerks, drives them with an
   open-loop Poisson stream and returns what it measured, after checking
   the world it leaves behind.

   Only hardware and topology are fixed here; every policy (commit policy,
   HA mode, clerk retries and timeouts, janitor settings) is the library
   default, so a change to a default shows up in the numbers. *)

module Sched = Rrq_sim.Sched
module Ivar = Rrq_sim.Ivar
module Net = Rrq_net.Net
module Disk = Rrq_storage.Disk
module Rng = Rrq_util.Rng
module Histogram = Rrq_util.Histogram
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Tm = Rrq_txn.Tm
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Clerk = Rrq_core.Clerk
module Ha = Rrq_core.Ha
module Shard = Rrq_core.Shard
module Envelope = Rrq_core.Envelope
module Audit = Rrq_check.Audit
module Runner = Rrq_check.Runner

type topology = Single_site | Ha_pair | Shards of int

type t = {
  name : string;
  topology : topology;
  rate : float;  (** Nominal offered load, requests per virtual second. *)
  requests : int;  (** Requests in one nominal rep. *)
  body_bytes : int;  (** Request body size; 0 for a short id-bearing body. *)
  read_frac : float;  (** Share of requests that only read an account. *)
}

let plain = { name = ""; topology = Single_site; rate = 10.0; requests = 20_000;
              body_bytes = 0; read_frac = 0.0 }

(* Host cost per request grows with run length, so every workload uses a
   fixed request count; large-body's is smaller because each request moves
   32 KiB through the codec, checksum and WAL layers. *)
let all =
  [
    { plain with name = "single" };
    { plain with name = "ha-sync"; topology = Ha_pair };
    { plain with name = "shard4"; topology = Shards 4; rate = 40.0 };
    { plain with name = "read-mostly"; rate = 40.0; read_frac = 0.8 };
    { plain with name = "large-body"; requests = 4_000; body_bytes = 16_384 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The fixed hardware model: a log force occupies a repository's device for
   5 ms and forces serialize per node (as in B13); one message takes 0.5 ms
   one way, with no jitter and no loss. *)
let sync_latency = 0.005
let net_latency = 0.0005
let server_threads = 8
let clerks = 64
let accounts = 1024
let warmup_frac = 0.05

(* A reply that has not arrived this long after its Send counts as lost. *)
let reply_deadline = 600.0

(* Virtual seconds the world runs on after the last reply, so commit
   redelivery and the resolver daemons finish before the audits look. *)
let settle = 10.0

(* ---- requests ----------------------------------------------------------- *)

type op = Exec | Read of int | Write of int

let rid_of i = "r" ^ string_of_int i
let index_of_rid rid = int_of_string (String.sub rid 1 (String.length rid - 1))
let writes = function Exec | Write _ -> true | Read _ -> false
let account a = "acct:" ^ string_of_int a

let body w op i =
  match op with
  | Read a -> "r:" ^ string_of_int a
  | Write a -> "w:" ^ string_of_int a
  | Exec ->
    let id = "x:" ^ string_of_int i in
    if w.body_bytes <= String.length id then id
    else begin
      let b = Bytes.make w.body_bytes '.' in
      Bytes.blit_string id 0 b 0 (String.length id);
      Bytes.unsafe_to_string b
    end

(* Per-request timestamps (virtual seconds; nan until set), indexed by the
   number in the rid. The handler writes [h_in]/[h_out] of its latest
   attempt; an aborted attempt is overwritten by the one that commits. *)
type state = {
  n : int;
  ops : op array;
  due : float array;
  send_start : float array;
  send_end : float array;
  h_in : float array;
  h_out : float array;
  done_at : float array;
  replies : int array;
  failed : bool array;
  mutable stray : int;  (** Replies whose rid was not the awaited one. *)
  mutable bad_body : int;  (** Matching replies with a wrong body. *)
}

let handler st site txn env =
  let rid = env.Envelope.rid in
  let i = index_of_rid rid in
  st.h_in.(i) <- Sched.clock ();
  let kv = Site.kv site and id = Tm.txn_id txn in
  let reply =
    match st.ops.(i) with
    | Read a -> string_of_int (Kvdb.get_int kv id (account a))
    | Write a ->
      ignore (Kvdb.add kv id (account a) 1);
      ignore (Kvdb.add kv id ("exec:" ^ rid) 1);
      "ok"
    | Exec ->
      ignore (Kvdb.add kv id ("exec:" ^ rid) 1);
      env.Envelope.body
  in
  st.h_out.(i) <- Sched.clock ();
  Server.Reply reply

let reply_ok op ~request ~reply =
  match op with
  | Exec -> reply = request
  | Write _ -> reply = "ok"
  | Read _ -> int_of_string_opt reply <> None

(* One clerk works through arrivals c, c+64, c+128, ... in order: the
   paper's clerk has one outstanding request, so a busy clerk makes a
   later arrival wait, and that wait counts in its latency. *)
let run_clerk w st clerk c =
  let k = ref c in
  while !k < st.n do
    let i = !k in
    let wait = st.due.(i) -. Sched.clock () in
    if wait > 0.0 then Sched.sleep wait;
    let rid = rid_of i in
    let request = body w st.ops.(i) i in
    st.send_start.(i) <- Sched.clock ();
    (match Clerk.send clerk ~rid request with
    | _ ->
      st.send_end.(i) <- Sched.clock ();
      let give_up = Sched.clock () +. reply_deadline in
      let rec receive () =
        match Clerk.receive clerk () with
        | Some env when env.Envelope.rid = rid ->
          st.done_at.(i) <- Sched.clock ();
          st.replies.(i) <- st.replies.(i) + 1;
          if not (reply_ok st.ops.(i) ~request ~reply:env.Envelope.body) then
            st.bad_body <- st.bad_body + 1
        | Some _ ->
          st.stray <- st.stray + 1;
          receive ()
        | None -> if Sched.clock () < give_up then receive () else st.failed.(i) <- true
        | exception Clerk.Unavailable _ -> st.failed.(i) <- true
      in
      receive ()
    | exception Clerk.Unavailable _ -> st.failed.(i) <- true);
    k := i + clerks
  done

(* ---- topologies --------------------------------------------------------- *)

type world = {
  authoritative : Site.t list;  (** Repositories whose state is the truth. *)
  devices : Disk.t list;  (** Every repository node's log device. *)
  servers : unit -> Server.t list;
  ship_batches : unit -> int;
  until_ready : unit -> unit;  (** Blocks until clerks can connect. *)
  connect : client_node:Net.node -> client_id:string -> Clerk.t;
}

let build w st net =
  let repo name = Net.make_node ~sync_latency net name in
  let site node = Site.create ~queues:[ ("req", Qm.default_attrs) ] node in
  let serve s = Server.start s ~req_queue:"req" ~threads:server_threads (handler st) in
  let clerk ?backups ?shard_map system ~client_node ~client_id =
    fst
      (Clerk.connect ~client_node ~system ?backups ?shard_map ~client_id
         ~req_queue:"req" ())
  in
  match w.topology with
  | Single_site ->
    let s = site (repo "repo") in
    let srv = serve s in
    {
      authoritative = [ s ];
      devices = [ Net.disk (Site.node s) ];
      servers = (fun () -> [ srv ]);
      ship_batches = (fun () -> 0);
      until_ready = ignore;
      connect = clerk "repo";
    }
  | Ha_pair ->
    let servers = ref [] in
    let on_serving ha =
      servers :=
        Server.start_here (Ha.site ha) ~req_queue:"req" ~threads:server_threads
          (handler st)
        :: !servers
    in
    let p = site (repo "primary") and b = site (repo "backup") in
    let ha_p = Ha.attach ~on_serving p ~peer:"backup" ~role:Ha.Primary in
    ignore (Ha.attach ~on_serving b ~peer:"primary" ~role:Ha.Standby);
    {
      authoritative = [ p ];
      devices = [ Net.disk (Site.node p); Net.disk (Site.node b) ];
      servers = (fun () -> !servers);
      ship_batches = (fun () -> Ha.ship_batches ha_p);
      until_ready =
        (fun () ->
          ignore
            (Runner.await ~poll:0.01 (fun () ->
                 Ha.is_serving ha_p && Ha.shipping ha_p)));
      connect = clerk ~backups:[ "backup" ] "primary";
    }
  | Shards n ->
    let names = List.init n (Printf.sprintf "s%d") in
    let map =
      { Shard.version = 1; shards = names; backups = []; sharded_queues = [ "req" ];
        pins = [] }
    in
    let sites = List.map (fun name -> site (repo name)) names in
    let srvs = List.map serve sites in
    List.iter (fun s -> ignore (Shard.attach s map)) sites;
    {
      authoritative = sites;
      devices = List.map (fun s -> Net.disk (Site.node s)) sites;
      servers = (fun () -> srvs);
      ship_batches = (fun () -> 0);
      until_ready = ignore;
      connect = clerk ~shard_map:map (List.hd names);
    }

(* Exact work counts from public accessors, named by the per-request
   metric each becomes. *)
let counts world net =
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 world.devices in
  [
    ("disk.syncs_per_req", sum Disk.sync_count);
    ("disk.bytes_per_req", sum Disk.synced_bytes);
    ("net.msgs_per_req", Net.messages_sent net);
    ("server.aborts_per_req",
     List.fold_left (fun acc s -> acc + Server.aborted s) 0 (world.servers ()));
    ("ha.ship_batches_per_req", world.ship_batches ());
  ]

(* ---- checks ------------------------------------------------------------- *)

(* The five spans of a request, in order: clerk lag (due -> Send starts),
   Send, queue wait (Send returns -> handler entry), server execution and
   the reply leg (handler return -> Receive returns). A server may pick the
   request up before the Send's acknowledgement reaches the clerk; the
   boundaries are clamped to be monotone, so that overlap counts in the
   Send span and the five spans sum to the latency by construction. *)
let spans st i =
  let t0 = st.due.(i) and t1 = st.send_start.(i) and t2 = st.send_end.(i) in
  let t3 = Float.max st.h_in.(i) t2 in
  let t4 = Float.max st.h_out.(i) t3 in
  let t5 = st.done_at.(i) in
  [| t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3; t5 -. t4 |]

let span_names = [| "clerk.lag_ms"; "clerk.send_ms"; "queue.wait_ms"; "server.exec_ms";
                    "reply.leg_ms" |]

let answered st i = not st.failed.(i)

(* Timestamps are sums of virtual delays, so two of them that should be
   equal can differ in the last bits. *)
let rounding = 1e-9

let span_problems st =
  let bad = ref 0 in
  for i = 0 to st.n - 1 do
    if answered st i then begin
      let sp = spans st i in
      let latency = st.done_at.(i) -. st.due.(i) in
      let sum = Array.fold_left ( +. ) 0.0 sp in
      if
        Float.is_nan st.h_in.(i) || Float.is_nan st.h_out.(i)
        || Array.exists (fun d -> Float.is_nan d || d < -.rounding) sp
        || Float.abs (sum -. latency) > rounding
      then incr bad
    end
  done;
  !bad

let audit w st world =
  let idx = List.init st.n Fun.id in
  let rids p = List.map rid_of (List.filter p idx) in
  let writing = rids (fun i -> answered st i && writes st.ops.(i)) in
  let all_writes = rids (fun i -> writes st.ops.(i)) in
  let answered_rids = rids (answered st) in
  let n_failed = st.n - List.length answered_rids in
  let sites () = world.authoritative in
  let committed_writes () =
    List.fold_left
      (fun acc rid ->
        acc + List.fold_left (fun a s -> a + Audit.exec_count s rid) 0 (sites ()))
      0 all_writes
  in
  let account_sum () =
    let total = ref 0 in
    List.iter
      (fun s ->
        for a = 0 to accounts - 1 do
          match Kvdb.committed_value (Site.kv s) (account a) with
          | Some v -> total := !total + Option.value ~default:0 (int_of_string_opt v)
          | None -> ()
        done)
      (sites ());
    !total
  in
  let auditors =
    [
      Audit.exactly_once ~sites ~rids:(fun () -> writing);
      Audit.reply_delivery ~sites
        ~received:(fun rid -> st.replies.(index_of_rid rid))
        ~rids:(fun () -> answered_rids);
      Audit.no_in_doubt ~sites;
      Audit.queue_integrity ~sites;
      Audit.make "reply-bodies" (fun () ->
          if st.bad_body = 0 then None
          else Some (Printf.sprintf "%d replies with a wrong body" st.bad_body));
      Audit.make "stray-replies" (fun () ->
          (* A Send that failed may still have been enqueued, so its reply
             can reach the clerk later; with no failure there is none. *)
          if n_failed > 0 || st.stray = 0 then None
          else Some (Printf.sprintf "%d replies for a request not awaited" st.stray));
      Audit.make "spans" (fun () ->
          match span_problems st with
          | 0 -> None
          | n -> Some (Printf.sprintf "%d requests whose spans do not sum to latency" n));
    ]
    @
    if w.read_frac > 0.0 then
      [ Audit.conservation ~name:"accounts" ~expected:(committed_writes ())
          ~actual:account_sum ]
    else []
  in
  List.map
    (fun f -> Printf.sprintf "%s: %s: %s" w.name f.Audit.auditor f.Audit.detail)
    (Audit.run auditors)

(* ---- one rep ------------------------------------------------------------ *)

type rep = {
  values : (string * float) list;
  latencies : float array;  (** Of the answered requests after warm-up, ms. *)
  attempted : int;
  failed : int;
  findings : string list;
  digest : string;
      (** Of every virtual timestamp and count: equal digests mean equal
          virtual behaviour. *)
}

let ms = 1000.0

let summarize samples =
  let h = Histogram.create () in
  Array.iter (Histogram.add h) samples;
  (Histogram.percentile h 0.5, Histogram.percentile h 0.99, Histogram.mean h)

(* Registry metrics of a traced rep, over the measured interval. *)
let registry (d : Rrq_obs.Metrics.snapshot) ~requests =
  let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let counter p = List.fold_left (fun acc (k, v) -> if has_prefix p k then acc + v else acc) 0 d.s_counters in
  let series p =
    let h = Histogram.create () in
    List.iter (fun (k, a) -> if has_prefix p k then Array.iter (Histogram.add h) a) d.s_samples;
    h
  in
  let per_req x = float_of_int x /. float_of_int requests in
  (* WAL names: "<node>.tmlog" (and the standby's "tmship"), "qm@<node>.qmlog",
     "kv@<node>.wal". *)
  let forces cls =
    List.fold_left
      (fun acc (k, v) ->
        if not (has_prefix "gc.forces:" k) then acc
        else
          let wal = String.sub k 10 (String.length k - 10) in
          let c =
            if Filename.check_suffix wal ".qmlog" then "qm"
            else if has_prefix "kv@" wal then "kv"
            else "tm"
          in
          if c = cls then acc + v else acc)
      0 d.s_counters
  in
  let tm = series "tm.commit.latency:" and qmc = series "qm.commit.latency:" in
  [
    ("wal.forces_per_req.qm", per_req (forces "qm"));
    ("wal.forces_per_req.kv", per_req (forces "kv"));
    ("wal.forces_per_req.tm", per_req (forces "tm"));
    ("wal.batch_mean", Histogram.mean (series "gc.batch:"));
    ("wal.bytes_per_req", per_req (counter "wal.bytes:"));
    ("tm.commit_ms.p50", ms *. Histogram.percentile tm 0.5);
    ("tm.commit_ms.p99", ms *. Histogram.percentile tm 0.99);
    ("tm.commit_ms.mean", ms *. Histogram.mean tm);
    ("qm.commit_ms.p50", ms *. Histogram.percentile qmc 0.5);
    ("qm.commit_ms.p99", ms *. Histogram.percentile qmc 0.99);
    ("qm.commit_ms.mean", ms *. Histogram.mean qmc);
    ("qm.wait_ms.p99", ms *. Histogram.percentile (series "qm.wait:") 0.99);
    ("tm.aborts_per_req", per_req (counter "tm.aborts:"));
    ("shard.forwards_per_req", per_req (counter "shard.forwards:"));
  ]

(* Everything a rep measured, from its timestamps and counts. Statistics
   leave out the first [warmup_frac] of requests. *)
let measure st ~counts =
  let first = int_of_float (warmup_frac *. float_of_int st.n) in
  let kept = List.filter (answered st) (List.init (st.n - first) (fun i -> first + i)) in
  let kept = Array.of_list kept in
  let latency = Array.map (fun i -> ms *. (st.done_at.(i) -. st.due.(i))) kept in
  let p50, p99, mean = summarize latency in
  let span_values =
    List.concat
      (List.init (Array.length span_names) (fun j ->
           let p50, p99, mean =
             summarize (Array.map (fun i -> ms *. (spans st i).(j)) kept)
           in
           let n = span_names.(j) in
           [ (n ^ ".p50", p50); (n ^ ".p99", p99); (n ^ ".mean", mean) ]))
  in
  (* Completed over offered rate across the measured part of the stream:
     how long the arrivals took over how long it took to answer them all,
     well below 1 when a backlog grew. *)
  let completion =
    if Array.length kept = 0 then 0.0
    else
      let last = Array.fold_left (fun acc i -> Float.max acc st.done_at.(i)) neg_infinity kept in
      (st.due.(st.n - 1) -. st.due.(first)) /. (last -. st.due.(first))
  in
  let per_req x = float_of_int x /. float_of_int st.n in
  ( [
    ("p50_ms", p50);
    ("p99_ms", p99);
    ("mean_ms", mean);
    ("completion_ratio", completion);
  ]
  @ List.map (fun (k, c) -> (k, per_req c)) counts
  @ span_values,
    latency )

let run ?(traced = false) w ~seed ~requests ~rate =
  let rng = Rng.create seed in
  let gaps = Array.init requests (fun _ -> Rng.exponential rng ~mean:(1.0 /. rate)) in
  let ops =
    Array.init requests (fun _ ->
        if w.read_frac = 0.0 then Exec
        else
          let a = Rng.int rng accounts in
          if Rng.chance rng w.read_frac then Read a else Write a)
  in
  let nan () = Array.make requests Float.nan in
  let st =
    { n = requests; ops; due = nan (); send_start = nan (); send_end = nan ();
      h_in = nan (); h_out = nan (); done_at = nan (); replies = Array.make requests 0;
      failed = Array.make requests false; stray = 0; bad_body = 0 }
  in
  if traced then Rrq_obs.reset ();
  let host_start = Sys.time () in
  let result =
    Fun.protect ~finally:Rrq_obs.disable (fun () ->
        fst
          (Runner.run_scenario_traced (fun s ->
               let net = Net.create ~latency:net_latency s (Rng.create (seed + 1)) in
               let world = build w st net in
               let client_nodes =
                 Array.init clerks (fun c -> Net.make_node net (Printf.sprintf "cl%d" c))
               in
               fun () ->
                 world.until_ready ();
                 let connected = ref 0 and finished = ref 0 in
                 let all_in = Ivar.create () and go = Ivar.create ()
                 and all_done = Ivar.create () in
                 for c = 0 to clerks - 1 do
                   ignore
                     (Sched.fork ~name:(Printf.sprintf "clerk%d" c) (fun () ->
                          let clerk =
                            world.connect ~client_node:client_nodes.(c)
                              ~client_id:(Printf.sprintf "c%d" c)
                          in
                          incr connected;
                          if !connected = clerks then Ivar.fill all_in ();
                          Ivar.read go;
                          run_clerk w st clerk c;
                          incr finished;
                          if !finished = clerks then Ivar.fill all_done ()))
                 done;
                 Ivar.read all_in;
                 let host_ready = Sys.time () in
                 let t = ref (Sched.clock ()) in
                 Array.iteri (fun i g -> t := !t +. g; st.due.(i) <- !t) gaps;
                 let before = counts world net in
                 let obs_before = Rrq_obs.Metrics.snapshot () in
                 Ivar.fill go ();
                 Ivar.read all_done;
                 let host_done = Sys.time () in
                 let after = counts world net in
                 let obs =
                   Rrq_obs.Metrics.diff ~before:obs_before
                     ~after:(Rrq_obs.Metrics.snapshot ())
                 in
                 Sched.sleep settle;
                 let counts = List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before in
                 (host_ready -. host_start, host_done -. host_ready, counts, obs,
                  audit w st world))))
  in
  let setup_s, host_s, counts, obs, findings = result in
  let failed = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 st.failed in
  let digest =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            (st.due, st.send_start, st.send_end, st.h_in, st.h_out, st.done_at, counts)
            []))
  in
  let host =
    [
      ("host_us_per_req", 1e6 *. host_s /. float_of_int (max 1 (requests - failed)));
      ("setup_s", setup_s);
    ]
  in
  let values, latencies = measure st ~counts in
  {
    values = values @ host @ (if traced then registry obs ~requests else []);
    latencies;
    attempted = requests;
    failed;
    findings;
    digest;
  }

(* ---- saturation --------------------------------------------------------- *)

(* The latency limit and backlog rule a rate must meet to count as
   sustained. *)
let p99_limit_ms = 250.0
let min_completion = 0.97

let passes r =
  let v k = List.assoc k r.values in
  r.failed = 0 && v "p99_ms" <= p99_limit_ms && v "completion_ratio" >= min_completion

(* Log-bisection between 4 and 256 req/s: the highest passing rate, to a
   resolution of (256/4)^(1/2^probes). *)
let max_rate w ~seed ~requests ~probes =
  let lo = ref 4.0 and hi = ref 256.0 and findings = ref [] in
  for _ = 1 to probes do
    let mid = sqrt (!lo *. !hi) in
    let r = run w ~seed ~requests ~rate:mid in
    findings := !findings @ r.findings;
    if passes r then lo := mid else hi := mid
  done;
  (!lo, !findings)
