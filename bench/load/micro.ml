(* Host cost per layer: CPU ns per operation of the calls the request path
   makes, timed with B1's method — fresh state per rep, the minimum over
   [reps] reps (every noise source is additive), and max/min as the
   spread. Operations that must run inside a fiber are timed from inside
   one, in a world of their own. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Disk = Rrq_storage.Disk
module Wal = Rrq_wal.Wal
module Group_commit = Rrq_wal.Group_commit
module Lock = Rrq_txn.Lock
module Txid = Rrq_txn.Txid
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Checksum = Rrq_util.Checksum
module Rng = Rrq_util.Rng
module Envelope = Rrq_core.Envelope
module Site = Rrq_core.Site

let reps = 7

(* [ns_per_op] of one rep: the op built by [setup] is run [iters] times. *)
let plain ~iters setup () =
  let f = setup () in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  (Sys.time () -. t0) *. 1e9 /. float_of_int iters

(* Same, for an op that needs the scheduler: [build] makes a fresh world
   and returns the op, which runs [iters] times in a fiber. *)
let in_world ~iters ?(per_iter = 1) build () =
  let s = Sched.create () in
  let f = build s in
  let ns = ref 0.0 in
  ignore
    (Sched.spawn s ~name:"micro" (fun () ->
         let t0 = Sys.time () in
         for _ = 1 to iters do
           f ()
         done;
         ns := (Sys.time () -. t0) *. 1e9 /. float_of_int (iters * per_iter)));
  Sched.run s;
  !ns

let codec size () =
  let env =
    Envelope.make ~rid:"r1234" ~client_id:"c17" ~reply_node:"repo"
      ~reply_queue:"reply.c17" (String.make size 'b')
  in
  fun () -> ignore (Envelope.of_string (Envelope.to_string env))

let checksum () =
  let s = String.make 16_384 'c' in
  fun () -> ignore (Checksum.frame64 s)

let wal_append () =
  let wal, _ = Wal.open_log (Disk.create "micro") ~name:"w" in
  let record = String.make 128 'r' in
  fun () -> Wal.append wal record

let wal_force () =
  let wal, _ = Wal.open_log (Disk.create "micro") ~name:"w" in
  let gc = Group_commit.create wal in
  let record = String.make 128 'r' in
  fun () -> Group_commit.append_force gc record

let txid n = Txid.make ~origin:"micro" ~inc:1 ~n

let lock () =
  let lk = Lock.create ~name:"micro" () in
  let n = ref 0 in
  fun () ->
    incr n;
    let id = txid !n in
    Lock.acquire lk id ~key:"k" Lock.X;
    Lock.release_all lk id

let qm_roundtrip () =
  let qm = Qm.open_qm (Disk.create "micro") ~name:"qm" in
  Qm.create_queue qm "q";
  let h, _ = Qm.register qm ~queue:"q" ~registrant:"m" ~stable:false in
  let payload = String.make 128 'q' in
  fun () ->
    ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h payload));
    ignore (Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.No_wait))

let tm_local_2pc s =
  let net = Net.create s (Rng.create 1) in
  let site = Site.create ~queues:[ ("q", Qm.default_attrs) ] (Net.make_node net "m") in
  let n = ref 0 in
  fun () ->
    incr n;
    Site.with_txn site (fun txn ->
        Kvdb.put (Site.kv site) (Tm.txn_id txn) ("k" ^ string_of_int (!n mod 512)) "v";
        Site.remote_enqueue site txn ~dst:"m" ~queue:"q" "payload")

(* One op is a round trip between two yielding fibers: two switches. *)
let sched_switch ~iters s =
  ignore
    (Sched.spawn s ~name:"partner" (fun () ->
         for _ = 1 to iters do
           Sched.yield ()
         done));
  Sched.yield

let net_rpc s =
  let net = Net.create ~latency:Workload.net_latency s (Rng.create 1) in
  let a = Net.make_node net "a" in
  Net.add_service (Net.make_node net "b") "echo" Fun.id;
  fun () -> ignore (Net.call a ~dst:"b" ~service:"echo" Net.Ack)

(* Name, iterations per rep (sized for a few ms each), one rep. *)
let ops =
  [
    ("host.codec_ns.16B", 20_000, fun iters -> plain ~iters (codec 16));
    ("host.codec_ns.16KiB", 1_000, fun iters -> plain ~iters (codec 16_384));
    ("host.checksum_ns.16KiB", 2_000, fun iters -> plain ~iters checksum);
    ("host.wal_append_ns", 20_000, fun iters -> plain ~iters wal_append);
    ("host.wal_force_ns", 20_000, fun iters -> plain ~iters wal_force);
    ("host.lock_ns", 50_000, fun iters -> plain ~iters lock);
    ("host.qm_roundtrip_ns", 5_000, fun iters -> plain ~iters qm_roundtrip);
    ("host.tm_local_2pc_ns", 2_000, fun iters -> in_world ~iters tm_local_2pc);
    ("host.sched_switch_ns", 100_000,
     fun iters -> in_world ~iters ~per_iter:2 (sched_switch ~iters));
    ("host.net_rpc_ns", 10_000, fun iters -> in_world ~iters net_rpc);
  ]

let names = List.map (fun (name, _, _) -> name) ops

(* [(name, min ns/op, max/min)] for every op; [scale] divides the
   iteration counts (the smoke run). *)
let run ~scale =
  List.map
    (fun (name, iters, rep) ->
      let one = rep (max 1 (iters / scale)) in
      let samples = Array.init reps (fun _ -> one ()) in
      let lo = Array.fold_left Float.min infinity samples in
      let hi = Array.fold_left Float.max 0.0 samples in
      (name, lo, if lo > 0.0 then hi /. lo else 0.0))
    ops
