(* Benchmark & experiment harness: regenerates every table of
   EXPERIMENTS.md. The paper (SIGMOD 1990) has no quantitative tables of
   its own — figs. 1-7 are protocol artifacts — so each table here
   corresponds to a figure-reproduction (E-series) or to a performance
   claim made in the paper's prose (B-series). See DESIGN.md §4. *)

module Disk = Rrq_storage.Disk
module Wal = Rrq_wal.Wal
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Tm = Rrq_txn.Tm
module Table = Rrq_util.Table

(* [--smoke] runs everything at a fraction of the iterations/quota: enough
   to exercise every code path under [dune runtest] (the bench harness must
   not rot), useless for actual numbers. *)
let smoke = ref false
let scaled n = if !smoke then max 1 (n / 20) else n

(* ---- B1: micro-benchmarks -----------------------------------------------

   Methodology: each operation is timed over a fixed iteration count on
   freshly built state, repeated [b1_reps] times; the reported ns/op is the
   MINIMUM over reps and [spread] is max/min across reps (a noise
   indicator; ~1.0x = quiet machine). The minimum is the right estimator
   here because every source of noise — GC pauses, allocator growth,
   scheduling — is strictly additive. Regression-based estimators (OLS over
   a growing-iteration quota) proved unusable for these workloads: the
   simulated WAL's in-memory durable buffer grows monotonically within a
   timing window, so per-iteration cost is not stationary and r^2
   collapses. Fresh state per rep keeps every rep identically distributed. *)

let bench_roundtrip durability () =
  let disk = Disk.create "bench" in
  let qm = Qm.open_qm disk ~name:"qm" in
  Qm.create_queue qm ~attrs:{ Qm.default_attrs with durability } "q";
  let h, _ = Qm.register qm ~queue:"q" ~registrant:"b" ~stable:false in
  let payload = String.make 128 'x' in
  fun () ->
    ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h payload));
    ignore (Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.No_wait))

let bench_stable_roundtrip = bench_roundtrip Qm.Stable
let bench_volatile_roundtrip = bench_roundtrip Qm.Volatile

let bench_tagged_roundtrip () =
  let disk = Disk.create "bench" in
  let qm = Qm.open_qm disk ~name:"qm" in
  Qm.create_queue qm "q";
  let h, _ = Qm.register qm ~queue:"q" ~registrant:"b" ~stable:true in
  let payload = String.make 128 'x' in
  let n = ref 0 in
  fun () ->
    incr n;
    let tag = "rid" ^ string_of_int !n in
    ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag payload));
    ignore (Qm.auto_commit qm (fun id -> Qm.dequeue qm id h ~tag Qm.No_wait))

let bench_read () =
  let disk = Disk.create "bench" in
  let qm = Qm.open_qm disk ~name:"qm" in
  Qm.create_queue qm "q";
  let h, _ = Qm.register qm ~queue:"q" ~registrant:"b" ~stable:false in
  let eid = Qm.auto_commit qm (fun id -> Qm.enqueue qm id h "payload") in
  fun () -> ignore (Qm.read qm eid)

let bench_wal_append () =
  let disk = Disk.create "bench" in
  let wal, _ = Wal.open_log disk ~name:"w" in
  let record = String.make 128 'r' in
  fun () -> Wal.append_sync wal record

let bench_kv_put () =
  let disk = Disk.create "bench" in
  let kv = Kvdb.open_kv disk ~name:"kv" in
  let n = ref 0 in
  fun () ->
    incr n;
    let id = Rrq_txn.Txid.make ~origin:"b" ~inc:1 ~n:!n in
    Kvdb.put kv id ("k" ^ string_of_int (!n mod 512)) "v";
    Kvdb.commit kv id

let b1_ops =
  [
    ("stable enq+deq (128B)", bench_stable_roundtrip);
    ("volatile enq+deq (128B)", bench_volatile_roundtrip);
    ("tagged enq+deq (ckpt)", bench_tagged_roundtrip);
    ("read by eid", bench_read);
    ("wal append+sync (128B)", bench_wal_append);
    ("kvdb put (1-phase)", bench_kv_put);
  ]

let b1_reps = 7

let time_ns ~iters setup =
  let best = ref infinity and worst = ref 0.0 in
  for _ = 1 to b1_reps do
    let f = setup () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
    if ns < !best then best := ns;
    if ns > !worst then worst := ns
  done;
  (!best, !worst /. !best)

let run_b1 () =
  let iters = scaled 30_000 in
  let t =
    Table.create
      ~title:"B1: queue-manager operation costs (paper 10: main-memory DB + log)"
      ~columns:[ "operation"; "ns/op"; "spread" ]
  in
  List.iter
    (fun (name, setup) ->
      let ns, spread = time_ns ~iters setup in
      Table.add_row t
        [ "B1 " ^ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.2f" spread ])
    b1_ops;
  t

(* ---- experiment registry ------------------------------------------------ *)

(* Every section is addressable by id for [--only] and serialized by
   [--json]; the thunk keeps unselected experiments from running. *)
type sect = { id : string; heading : string; produce : unit -> Table.t }

let sections =
  [
    {
      id = "E1";
      heading = "E1 - exactly-once request processing (figs. 4/5)";
      produce =
        (fun () ->
          Rrq_harness.E_exactly_once.table (Rrq_harness.E_exactly_once.run ()));
    };
    {
      id = "E2";
      heading = "E2 - multi-transaction request chains (fig. 6)";
      produce =
        (fun () ->
          Rrq_harness.E_chain.crash_table (Rrq_harness.E_chain.run_crash_matrix ()));
    };
    {
      id = "E3";
      heading = "E3 - interactive requests (fig. 7, sec. 8)";
      produce =
        (fun () ->
          Rrq_harness.E_interactive.table (Rrq_harness.E_interactive.run ()));
    };
    {
      id = "B1";
      heading = "B1 - queue operation micro-costs (sec. 10)";
      produce = run_b1;
    };
    {
      id = "B2";
      heading = "B2 - lock-holding client designs (sec. 2)";
      produce =
        (fun () ->
          Rrq_harness.E_contention.table (Rrq_harness.E_contention.run ()));
    };
    {
      id = "B3";
      heading = "B3/B5 - dequeue concurrency & load sharing (secs. 1, 10)";
      produce =
        (fun () ->
          Rrq_harness.E_queueing.drain_table (Rrq_harness.E_queueing.run_drain ()));
    };
    {
      id = "B4";
      heading = "B4 - burst absorption (sec. 1)";
      produce =
        (fun () ->
          Rrq_harness.E_queueing.burst_table (Rrq_harness.E_queueing.run_burst ()));
    };
    {
      id = "B6";
      heading = "B6 - chain vs one long transaction (sec. 6)";
      produce =
        (fun () ->
          Rrq_harness.E_chain.contention_table (Rrq_harness.E_chain.run_contention ()));
    };
    {
      id = "B7";
      heading = "B7 - recovery and checkpointing (sec. 10)";
      produce =
        (fun () -> Rrq_harness.E_recovery.table (Rrq_harness.E_recovery.run ()));
    };
    {
      id = "B8";
      heading = "B8 - request serializability via lock inheritance (sec. 6)";
      produce =
        (fun () ->
          Rrq_harness.E_chain.serializability_table
            (Rrq_harness.E_chain.run_serializability ()));
    };
    {
      id = "B9";
      heading = "B9 - replicated queues (sec. 11)";
      produce =
        (fun () ->
          Rrq_harness.E_replication.table (Rrq_harness.E_replication.run ()));
    };
    {
      id = "B10";
      heading = "B10 - streaming requests and replies (sec. 11)";
      produce =
        (fun () -> Rrq_harness.E_stream.table (Rrq_harness.E_stream.run ()));
    };
    {
      id = "B11";
      heading = "B11 - priority scheduling (sec. 11)";
      produce =
        (fun () ->
          Rrq_harness.E_queueing.priority_table
            (Rrq_harness.E_queueing.run_priority ()));
    };
    {
      id = "B12";
      heading = "B12 - group commit on the commit path (sec. 10)";
      produce =
        (fun () ->
          Rrq_harness.E_group_commit.table
            (Rrq_harness.E_group_commit.run ~jobs:(scaled 200) ()));
    };
    {
      id = "B13";
      heading = "B13 - sharded multi-repository scale-out (sec. 11)";
      produce =
        (fun () ->
          Rrq_harness.E_shard.table
            (Rrq_harness.E_shard.run ~reqs:(scaled 25) ()));
    };
    {
      id = "B15";
      heading = "B15 - failover latency of the HA pair (sec. 11)";
      produce =
        (fun () ->
          Rrq_harness.E_failover.table
            (Rrq_harness.E_failover.run ~warmup:(scaled 40) ()));
    };
    {
      id = "A1";
      heading = "A1 - ablation: error queues vs cyclic restart (secs. 4.2, 5)";
      produce =
        (fun () ->
          Rrq_harness.E_queueing.poison_table (Rrq_harness.E_queueing.run_poison ()));
    };
  ]

(* ---- JSON export -------------------------------------------------------- *)

(* Hand-rolled: the build deliberately has no JSON dependency. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let json_of_table id (t : Table.t) =
  let arr items = "[" ^ String.concat ", " items ^ "]" in
  Printf.sprintf
    "    {\n      \"id\": %s,\n      \"title\": %s,\n      \"columns\": %s,\n      \"rows\": [\n%s\n      ]\n    }"
    (json_string id)
    (json_string (Table.title t))
    (arr (List.map json_string (Table.columns t)))
    (String.concat ",\n"
       (List.map
          (fun row -> "        " ^ arr (List.map json_string row))
          (Table.rows t)))

let write_json file results =
  let oc = open_out file in
  output_string oc
    (Printf.sprintf "{\n  \"sections\": [\n%s\n  ]\n}\n"
       (String.concat ",\n"
          (List.map (fun (id, t) -> json_of_table id t) results)));
  close_out oc;
  Printf.printf "wrote %s (%d sections)\n%!" file (List.length results)

(* ---- driver ------------------------------------------------------------- *)

let usage () =
  print_endline "usage: main.exe [--only ID]... [--json FILE] [--smoke]";
  print_endline "  --only ID    run only the section with this id (repeatable);";
  print_endline
    "               ids: E1 E2 E3 B1 B2 B3 B4 B6 B7 B8 B9 B10 B11 B12 B13 B15 A1";
  print_endline "  --json FILE  also write the selected tables to FILE as JSON";
  print_endline
    "  --smoke      tiny iteration counts: exercise the harness, not measure";
  exit 2

let parse_args () =
  let only = ref [] and json = ref None in
  let rec go = function
    | [] -> ()
    | "--only" :: id :: rest ->
      if not (List.exists (fun s -> s.id = id) sections) then begin
        Printf.eprintf "unknown section id %s\n" id;
        usage ()
      end;
      only := id :: !only;
      go rest
    | "--json" :: file :: rest ->
      json := Some file;
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (List.rev !only, !json)

let () =
  let only, json = parse_args () in
  let selected =
    match only with
    | [] -> sections
    | ids -> List.filter (fun s -> List.mem s.id ids) sections
  in
  let results =
    List.map
      (fun s ->
        Printf.printf "\n######## %s ########\n\n%!" s.heading;
        let t = s.produce () in
        Table.print t;
        (s.id, t))
      selected
  in
  (match json with Some file -> write_json file results | None -> ());
  Printf.printf "all experiments completed (%d sections)\n" (List.length results)
