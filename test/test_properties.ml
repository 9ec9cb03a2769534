(* Property-based tests on core invariants: lock-table compatibility, queue
   dequeue ordering, codec roundtrips, filter encode/eval consistency. *)

module Lock = Rrq_txn.Lock
module Txid = Rrq_txn.Txid
module Tm = Rrq_txn.Tm
module Sched = Rrq_sim.Sched
module Obs = Rrq_obs
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter
module Envelope = Rrq_core.Envelope
module Tag = Rrq_core.Tag
module Disk = Rrq_storage.Disk
module H = Rrq_test_support.Sim_harness

let tx n = Txid.make ~origin:"p" ~inc:1 ~n

(* --- lock manager: no incompatible co-holders, ever --------------------- *)

(* Random sequences of try_acquire / release_all over 4 transactions and 3
   keys. After every step, for every key the granted set must be
   compatible: at most one holder unless all holders are shared. *)
let prop_lock_compatibility =
  QCheck2.Test.make ~name:"lock: granted sets always compatible" ~count:300
    QCheck2.Gen.(list_size (int_bound 60) (tup3 (int_bound 3) (int_bound 2) (int_bound 2)))
    (fun script ->
      let lm = Lock.create () in
      let keys = [| "a"; "b"; "c" |] in
      let check_invariant () =
        Array.for_all
          (fun key ->
            let holders =
              List.filter_map
                (fun n ->
                  let id = tx n in
                  if Lock.holds lm id ~key Lock.X then Some (n, Lock.X)
                  else if Lock.holds lm id ~key Lock.S then Some (n, Lock.S)
                  else None)
                [ 0; 1; 2; 3 ]
            in
            match holders with
            | [] | [ _ ] -> true
            | many -> List.for_all (fun (_, m) -> m = Lock.S) many)
          keys
      in
      List.for_all
        (fun (who, key_i, action) ->
          let id = tx who in
          (match action with
          | 0 -> ignore (Lock.try_acquire lm id ~key:keys.(key_i) Lock.S)
          | 1 -> ignore (Lock.try_acquire lm id ~key:keys.(key_i) Lock.X)
          | _ -> Lock.release_all lm id);
          check_invariant ())
        script)

(* try_acquire must be consistent with holds. *)
let prop_lock_try_acquire_grants =
  QCheck2.Test.make ~name:"lock: try_acquire implies holds" ~count:200
    QCheck2.Gen.(list_size (int_bound 40) (tup2 (int_bound 3) (int_bound 1)))
    (fun script ->
      let lm = Lock.create () in
      List.for_all
        (fun (who, mode_i) ->
          let id = tx who in
          let mode = if mode_i = 0 then Lock.S else Lock.X in
          if Lock.try_acquire lm id ~key:"k" mode then
            Lock.holds lm id ~key:"k" mode
          else true)
        script)

(* --- QM: dequeue order ---------------------------------------------------- *)

(* Whatever the enqueue order, repeated dequeues return elements sorted by
   (priority desc, enqueue order). *)
let prop_qm_dequeue_order =
  QCheck2.Test.make ~name:"qm: dequeue respects priority then FIFO" ~count:100
    QCheck2.Gen.(list_size (int_bound 25) (int_bound 4))
    (fun priorities ->
      H.run_fiber (fun () ->
          let disk = Disk.create "p" in
          let qm = Qm.open_qm disk ~name:"qm" in
          Qm.create_queue qm "q";
          let h, _ = Qm.register qm ~queue:"q" ~registrant:"p" ~stable:false in
          List.iteri
            (fun i prio ->
              ignore
                (Qm.auto_commit qm (fun id ->
                     Qm.enqueue qm id h ~priority:prio
                       (Printf.sprintf "%d:%d" prio i))))
            priorities;
          let rec drain acc =
            match
              Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.No_wait)
            with
            | Some el -> drain (el.Element.payload :: acc)
            | None -> List.rev acc
          in
          let order = drain [] in
          let decoded =
            List.map
              (fun p ->
                match String.split_on_char ':' p with
                | [ prio; i ] -> (-int_of_string prio, int_of_string i)
                | _ -> assert false)
              order
          in
          (* sorted by (-priority, enqueue index) *)
          decoded = List.sort compare decoded))

(* Ranked dequeue always returns the ready element with the highest rank. *)
let prop_qm_rank_max =
  QCheck2.Test.make ~name:"qm: ranked dequeue returns the max" ~count:100
    QCheck2.Gen.(list_size (int_range 1 20) (int_bound 1000))
    (fun amounts ->
      H.run_fiber (fun () ->
          let disk = Disk.create "p" in
          let qm = Qm.open_qm disk ~name:"qm" in
          Qm.create_queue qm "q";
          let h, _ = Qm.register qm ~queue:"q" ~registrant:"p" ~stable:false in
          List.iter
            (fun a ->
              ignore
                (Qm.auto_commit qm (fun id ->
                     Qm.enqueue qm id h
                       ~props:[ ("amount", string_of_int a) ]
                       (string_of_int a))))
            amounts;
          let rank el =
            match Element.prop el "amount" with
            | Some a -> float_of_string a
            | None -> 0.0
          in
          match Qm.auto_commit qm (fun id -> Qm.dequeue qm id h ~rank Qm.No_wait) with
          | Some el ->
            int_of_string el.Element.payload
            = List.fold_left max min_int amounts
          | None -> false))

(* --- codecs ---------------------------------------------------------------- *)

let gen_small_string = QCheck2.Gen.(string_size ~gen:printable (int_bound 30))

let prop_envelope_roundtrip =
  QCheck2.Test.make ~name:"envelope: to_string/of_string roundtrip" ~count:300
    QCheck2.Gen.(
      tup4 gen_small_string gen_small_string gen_small_string
        (tup3 gen_small_string gen_small_string (int_bound 10)))
    (fun (rid, client_id, body, (kind, scratch, step)) ->
      let env =
        Envelope.make ~rid ~client_id ~reply_node:"n" ~reply_queue:"rq"
          ~kind ~scratch ~step body
      in
      Envelope.of_string (Envelope.to_string env) = env)

let prop_tag_roundtrip =
  QCheck2.Test.make ~name:"tag: rid/ckpt pieces roundtrip" ~count:300
    QCheck2.Gen.(tup2 gen_small_string (option gen_small_string))
    (fun (rid, ckpt) ->
      let send_tag = Tag.send ~rid in
      let recv_tag = Tag.receive ~rid:(Some rid) ~ckpt in
      Tag.rid_piece send_tag = Some rid
      && Tag.rid_piece recv_tag = Some rid
      && Tag.ckpt_piece recv_tag = ckpt)

(* A filter survives encode/decode with identical semantics on random
   elements. *)
let gen_filter =
  let open QCheck2.Gen in
  let key = oneofl [ "k1"; "k2"; "k3" ] in
  let value = oneofl [ "a"; "b"; "7"; "42" ] in
  sized
  @@ fix (fun self n ->
         if n = 0 then
           oneof
             [
               return Filter.True;
               map2 (fun k v -> Filter.Prop_eq (k, v)) key value;
               map (fun k -> Filter.Prop_exists k) key;
               map2 (fun k b -> Filter.Prop_ge (k, b)) key (int_bound 50);
               map (fun p -> Filter.Priority_ge p) (int_bound 5);
             ]
         else
           oneof
             [
               map (fun f -> Filter.Not f) (self (n / 2));
               map2 (fun a b -> Filter.And (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Filter.Or (a, b)) (self (n / 2)) (self (n / 2));
             ])

let gen_element =
  let open QCheck2.Gen in
  let prop =
    tup2 (oneofl [ "k1"; "k2"; "k3" ]) (oneofl [ "a"; "b"; "7"; "42" ])
  in
  map2
    (fun props priority ->
      Element.make ~eid:1L ~payload:"x" ~props ~priority ~enq_time:0.0)
    (list_size (int_bound 4) prop)
    (int_bound 5)

let prop_filter_codec_semantics =
  QCheck2.Test.make ~name:"filter: codec preserves semantics" ~count:400
    QCheck2.Gen.(tup2 gen_filter gen_element)
    (fun (f, el) ->
      let e = Rrq_util.Codec.encoder () in
      Filter.encode e f;
      let f' = Filter.decode (Rrq_util.Codec.decoder (Rrq_util.Codec.to_string e)) in
      Filter.matches f el = Filter.matches f' el)

(* Element codec roundtrip (status resets to Ready by design). *)
let prop_element_roundtrip =
  QCheck2.Test.make ~name:"element: codec roundtrip" ~count:200
    QCheck2.Gen.(
      tup4 gen_small_string
        (list_size (int_bound 4) (tup2 gen_small_string gen_small_string))
        (int_bound 9) (int_bound 1000))
    (fun (payload, props, priority, dc) ->
      let el = Element.make ~eid:77L ~payload ~props ~priority ~enq_time:1.5 in
      el.Element.delivery_count <- dc;
      el.Element.abort_code <- (if dc > 500 then Some "code" else None);
      let e = Rrq_util.Codec.encoder () in
      Element.encode e el;
      let el' = Element.decode (Rrq_util.Codec.decoder (Rrq_util.Codec.to_string e)) in
      el'.Element.eid = 77L
      && el'.Element.payload = payload
      && el'.Element.props = props
      && el'.Element.priority = priority
      && el'.Element.enq_time = 1.5
      && el'.Element.delivery_count = dc
      && el'.Element.abort_code = el.Element.abort_code
      && el'.Element.status = Element.Ready)

(* --- HA shipping: prefix replay consistency -------------------------------- *)

(* The correctness core of WAL shipping (and of the warm standby's takeover
   claim): whatever prefix of the shipped record stream reaches the backup
   before the primary dies, replaying it yields the primary's committed
   queue state as of some ship boundary — never a torn state. Random op
   sequences (enqueues, dequeues, explicit two-phase commits) run against a
   primary QM with a capturing shipper; every prefix of the captured stream
   is replayed into a fresh standby QM and compared against the snapshot
   taken at the largest covered boundary. A cut between a shipped prepare
   and its commit must leave the transaction prepared, not applied. *)
let prop_ha_prefix_consistent =
  QCheck2.Test.make ~name:"ha: shipped-prefix replay is prefix-consistent"
    ~count:60
    QCheck2.Gen.(list_size (int_bound 30) (tup2 (int_bound 5) (int_bound 4)))
    (fun ops ->
      H.run_fiber (fun () ->
          let module Gc = Rrq_wal.Group_commit in
          let module Node_log = Rrq_txn.Node_log in
          let disk = Disk.create "p" in
          let qm = Qm.open_qm disk ~name:"qmp" in
          let shipped = ref [] in
          let nship = ref 0 in
          Gc.set_shipper ~sync:true (Node_log.group_commit (Qm.log qm)) (fun batch ->
              List.iter
                (fun (_, r) ->
                  shipped := r :: !shipped;
                  incr nship)
                batch);
          Qm.create_queue qm "q";
          let h, _ = Qm.register qm ~queue:"q" ~registrant:"p" ~stable:true in
          Node_log.force (Qm.log qm);
          let state_of m =
            (* A short prefix may predate the queue-creation record. *)
            match Qm.elements m "q" with
            | els ->
              List.map
                (fun el ->
                  (el.Element.eid, el.Element.payload, el.Element.priority))
                els
            | exception Qm.No_such_queue _ -> []
          in
          let snaps = ref [ (!nship, state_of qm) ] in
          List.iteri
            (fun i (op, prio) ->
              (match op with
              | 0 | 1 | 2 ->
                ignore
                  (Qm.auto_commit qm (fun id ->
                       Qm.enqueue qm id h ~priority:prio
                         (Printf.sprintf "e%d" i)))
              | 3 ->
                ignore
                  (Qm.auto_commit qm (fun id -> Qm.dequeue qm id h Qm.No_wait))
              | _ ->
                (* Explicit two-phase commit: a shipped prepare record with
                   its commit record one or more cuts later. *)
                let id = Txid.make ~origin:"coord" ~inc:1 ~n:(1000 + i) in
                ignore (Qm.enqueue qm id h ~priority:prio (Printf.sprintf "t%d" i));
                let p = Qm.participant qm in
                if p.Tm.p_prepare id ~coordinator:"coord" () then
                  ignore (p.Tm.p_commit id));
              snaps := (!nship, state_of qm) :: !snaps)
            ops;
          let records = Array.of_list (List.rev !shipped) in
          let total = Array.length records in
          let expected_at k =
            (* The committed state at the largest ship boundary <= k. *)
            List.fold_left
              (fun (bc, bs) (c, s) -> if c <= k && c > bc then (c, s) else (bc, bs))
              (-1, []) !snaps
            |> snd
          in
          let ok = ref true in
          for k = 0 to total do
            let bqm = Qm.open_qm (Disk.create "b") ~name:"qmb" in
            Node_log.standby_apply (Qm.log bqm)
              (Array.to_list (Array.sub records 0 k));
            if state_of bqm <> expected_at k then begin
              ok := false;
              QCheck2.Test.fail_reportf
                "prefix %d/%d: backup state diverges from the boundary state"
                k total
            end;
            if k = total && Qm.in_doubt bqm <> [] then begin
              ok := false;
              QCheck2.Test.fail_reportf
                "full replay left %d transactions in doubt"
                (List.length (Qm.in_doubt bqm))
            end
          done;
          !ok))

(* --- observability: the registry obeys conservation laws ------------------ *)

(* Random transactional workloads over one TM and one QM. Whatever the mix
   of committed enqueues/dequeues and aborted dequeues (which bump retry
   counts and eventually spill to the error queue), the registry must
   balance: elements are conserved, every begun transaction ends exactly
   once, and spills only happen on aborts. *)
let prop_obs_conservation =
  QCheck2.Test.make ~name:"obs: metrics registry conservation laws" ~count:60
    QCheck2.Gen.(list_size (int_bound 40) (int_bound 5))
    (fun ops ->
      Obs.reset ();
      Fun.protect ~finally:Obs.disable (fun () ->
          H.run_fiber' (fun s ->
              let disk = Disk.create "p" in
              let tm = Tm.open_tm disk ~name:"tmobs" in
              let qm = Qm.open_qm disk ~name:"q" in
              Qm.set_clock qm (fun () -> Sched.now s);
              Qm.create_queue qm
                ~attrs:{ Qm.default_attrs with Qm.retry_limit = 2 }
                "work";
              let h, _ =
                Qm.register qm ~queue:"work" ~registrant:"p" ~stable:false
              in
              List.iter
                (fun op ->
                  let txn = Tm.begin_txn tm in
                  let id = Tm.txn_id txn in
                  Tm.join txn (Qm.participant qm);
                  match op with
                  | 0 | 1 | 2 ->
                    ignore (Qm.enqueue qm id h "payload");
                    ignore (Tm.commit tm txn)
                  | 3 ->
                    ignore (Qm.dequeue qm id h Qm.No_wait);
                    ignore (Tm.commit tm txn)
                  | _ ->
                    ignore (Qm.dequeue qm id h Qm.No_wait);
                    Tm.abort tm txn)
                ops;
              let c = Obs.Metrics.counter in
              let enq = c "qm.enqueues:q" in
              let deq = c "qm.dequeues:q" in
              let kills = c "qm.kills:q" in
              let spills = c "qm.spills:q" in
              let begins = c "tm.begins:tmobs" in
              let commits = c "tm.commits:tmobs" in
              let aborts = c "tm.aborts:tmobs" in
              let depth =
                int_of_float (Obs.Metrics.sum_gauges ~prefix:"qm.depth:q/")
              in
              if enq - deq - kills <> depth then
                QCheck2.Test.fail_reportf
                  "element conservation: enq=%d deq=%d kills=%d but depth=%d"
                  enq deq kills depth
              else if commits + aborts <> begins then
                QCheck2.Test.fail_reportf
                  "txn conservation: begins=%d commits=%d aborts=%d" begins
                  commits aborts
              else if spills > aborts then
                QCheck2.Test.fail_reportf "spills=%d exceed aborts=%d" spills
                  aborts
              else true)))

(* --- shard map: placement is a function, conservation across shards ------ *)

module Shard = Rrq_core.Shard

(* Random shard maps (1..5 shards, random pins, a version chain where later
   versions drop the pins) against random element batches. For every map
   version, every element must route to exactly one shard (the owner is a
   total, deterministic function into the shard list, honoring pins), and
   the per-shard buckets must conserve the batch: summed across shards the
   buckets hold each element exactly once — nothing is lost and nothing is
   placed twice, whichever version is in force. *)
let prop_shard_routing =
  QCheck2.Test.make
    ~name:"shard: every element routes to exactly one shard, per version"
    ~count:200
    QCheck2.Gen.(
      tup4 (int_range 1 5) (int_bound 8) (int_range 1 25) (int_bound 1_000_000))
    (fun (nshards, npins, nelems, salt) ->
      let shards = List.init nshards (Printf.sprintf "n%d") in
      let elems =
        List.init nelems (fun i ->
            Printf.sprintf "req#client%d" ((i * 131) + salt))
      in
      let pins =
        List.filteri (fun i _ -> i < npins) elems
        |> List.mapi (fun i k -> (k, List.nth shards ((i + salt) mod nshards)))
      in
      let v1 =
        {
          Shard.version = 1;
          shards;
          backups = [];
          sharded_queues = [ "req" ];
          pins;
        }
      in
      let versions = [ v1; { v1 with Shard.version = 2; pins = [] } ] in
      List.for_all
        (fun m ->
          (* total + deterministic + pinned *)
          List.for_all
            (fun key ->
              let o = Shard.owner m key in
              if not (List.mem o m.Shard.shards) then
                QCheck2.Test.fail_reportf
                  "v%d: owner of %s is %s, not a shard" m.Shard.version key o
              else if Shard.owner m key <> o then
                QCheck2.Test.fail_reportf "v%d: owner of %s not deterministic"
                  m.Shard.version key
              else
                match (List.assoc_opt key m.Shard.pins, Shard.candidates m key) with
                | Some p, _ when p <> o ->
                  QCheck2.Test.fail_reportf
                    "v%d: pin of %s is %s but owner says %s" m.Shard.version
                    key p o
                | _, c :: _ when c <> o ->
                  QCheck2.Test.fail_reportf
                    "v%d: candidates of %s do not lead with the owner"
                    m.Shard.version key
                | _ -> true)
            elems
          &&
          (* conservation summed across shards *)
          let bucket s = List.filter (fun k -> Shard.owner m k = s) elems in
          let buckets = List.map bucket m.Shard.shards in
          let total = List.fold_left (fun a b -> a + List.length b) 0 buckets in
          if total <> List.length elems then
            QCheck2.Test.fail_reportf
              "v%d: buckets sum to %d, batch has %d elements" m.Shard.version
              total (List.length elems)
          else
            List.for_all
              (fun k ->
                let holders =
                  List.length
                    (List.filter (List.exists (String.equal k)) buckets)
                in
                holders = 1
                || QCheck2.Test.fail_reportf
                     "v%d: element %s held by %d shards" m.Shard.version k
                     holders)
              elems)
        versions)

(* Reply placement: an unpinned reply queue lives with its client's request
   key, whatever pins the request keys carry; a pin on the reply queue
   wins; a custom-named queue is placed by the FNV-1a hash of its name. *)
let prop_reply_placement =
  QCheck2.Test.make
    ~name:"shard: a reply queue follows its client's request key"
    ~count:200
    QCheck2.Gen.(
      tup4 (int_range 1 5) (int_bound 8) (int_range 1 25) (int_bound 1_000_000))
    (fun (nshards, npins, nclients, salt) ->
      let shards = List.init nshards (Printf.sprintf "n%d") in
      let clients =
        List.init nclients (fun i -> Printf.sprintf "c%d" ((i * 131) + salt))
      in
      let m =
        { Shard.version = 1; shards; backups = []; sharded_queues = [ "req" ];
          pins = [] }
      in
      let request c = Shard.key_for m ~queue:"req" ~registrant:c in
      let request_pins =
        List.filteri (fun i _ -> i < npins) clients
        |> List.mapi (fun i c -> (request c, List.nth shards ((i + salt) mod nshards)))
      in
      let pinned = { m with Shard.version = 2; pins = request_pins } in
      let by_name q =
        let h = Rrq_util.Checksum.fnv1a64 q in
        List.nth shards
          (Int64.to_int
             (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int nshards)))
      in
      List.for_all
        (fun c ->
          let reply = Shard.reply_queue c in
          let home = Shard.owner m (request c) in
          let pin = List.nth shards ((salt + 1) mod nshards) in
          let custom = "replies-for-" ^ c in
          if Shard.reply_client reply <> Some c then
            QCheck2.Test.fail_reportf "%s does not name client %s" reply c
          else if Shard.owner m reply <> home then
            QCheck2.Test.fail_reportf "%s is on %s, its requests on %s" reply
              (Shard.owner m reply) home
          else if Shard.owner pinned reply <> home then
            QCheck2.Test.fail_reportf "request pins moved %s from %s to %s"
              reply home (Shard.owner pinned reply)
          else if Shard.owner { m with pins = [ (reply, pin) ] } reply <> pin
          then QCheck2.Test.fail_reportf "the pin of %s on %s lost" reply pin
          else if Shard.owner m custom <> by_name custom then
            QCheck2.Test.fail_reportf "%s is on %s, its name hashes to %s"
              custom (Shard.owner m custom) (by_name custom)
          else true)
        clients)

(* Umbrella-module smoke: the [Rrq] re-exports resolve and link. *)
let test_umbrella_links () =
  Alcotest.(check bool) "filter through the umbrella" true
    (Rrq.Filter.matches Rrq.Filter.True
       (Rrq.Element.make ~eid:1L ~payload:"x" ~props:[] ~priority:0
          ~enq_time:0.0));
  Alcotest.(check string) "txid through the umbrella" "n.1.2"
    (Rrq.Txid.to_string (Rrq.Txid.make ~origin:"n" ~inc:1 ~n:2))

let () =
  Alcotest.run "rrq-properties"
    [
      ( "locks",
        [
          QCheck_alcotest.to_alcotest prop_lock_compatibility;
          QCheck_alcotest.to_alcotest prop_lock_try_acquire_grants;
        ] );
      ( "qm",
        [
          QCheck_alcotest.to_alcotest prop_qm_dequeue_order;
          QCheck_alcotest.to_alcotest prop_qm_rank_max;
        ] );
      ("ha", [ QCheck_alcotest.to_alcotest prop_ha_prefix_consistent ]);
      ( "shard",
        [
          QCheck_alcotest.to_alcotest prop_shard_routing;
          QCheck_alcotest.to_alcotest prop_reply_placement;
        ] );
      ("obs", [ QCheck_alcotest.to_alcotest prop_obs_conservation ]);
      ("umbrella", [ Alcotest.test_case "links" `Quick test_umbrella_links ]);
      ( "codecs",
        [
          QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
          QCheck_alcotest.to_alcotest prop_tag_roundtrip;
          QCheck_alcotest.to_alcotest prop_filter_codec_semantics;
          QCheck_alcotest.to_alcotest prop_element_roundtrip;
        ] );
    ]
