module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Envelope = Rrq_core.Envelope
module Shard = Rrq_core.Shard
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Element = Rrq_qm.Element

(* ---- the exactly-once execution ledger -------------------------------- *)

let counting_handler site txn env =
  let kv = Site.kv site in
  let id = Tm.txn_id txn in
  ignore (Kvdb.add kv id ("exec:" ^ env.Envelope.rid) 1);
  ignore (Kvdb.add kv id "total" 1);
  Server.Reply ("done:" ^ env.Envelope.body)

let exec_count site rid =
  match Kvdb.committed_value (Site.kv site) ("exec:" ^ rid) with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
  | None -> 0

let audit_executions sites ~rids =
  List.fold_left
    (fun (lost, exact, dup) rid ->
      let n = List.fold_left (fun acc site -> acc + exec_count site rid) 0 sites in
      if n = 0 then (lost + 1, exact, dup)
      else if n = 1 then (lost, exact + 1, dup)
      else (lost, exact, dup + 1))
    (0, 0, 0) rids

(* ---- the auditor registry --------------------------------------------- *)

type auditor = { name : string; check : unit -> string option }
type finding = { auditor : string; detail : string }

let make name check = { name; check }

let run auditors =
  List.filter_map
    (fun a ->
      match a.check () with
      | None -> None
      | Some detail -> Some { auditor = a.name; detail }
      | exception e when Rrq_util.Swallow.nonfatal e ->
        Some { auditor = a.name; detail = "auditor raised: " ^ Printexc.to_string e })
    auditors

let findings_to_string = function
  | [] -> "all auditors passed"
  | fs ->
    String.concat "; "
      (List.map (fun f -> Printf.sprintf "%s: %s" f.auditor f.detail) fs)

(* ---- standard auditors ------------------------------------------------ *)

let exactly_once ~sites ~rids =
  make "exactly-once" (fun () ->
      let lost, _exact, dup = audit_executions (sites ()) ~rids:(rids ()) in
      if lost = 0 && dup = 0 then None
      else Some (Printf.sprintf "%d lost, %d duplicated executions" lost dup))

let conservation ~name ~expected ~actual =
  make ("conservation:" ^ name) (fun () ->
      let v = actual () in
      if v = expected then None
      else Some (Printf.sprintf "expected %d, found %d" expected v))

(* Structural integrity of every queue on every site: element ids unique
   within a repository, no negative delivery counts. Note that committed
   enqueue/dequeue counters ([Qm.counts]) are per-incarnation — recovery
   replay intentionally does not count — so comparing them is only
   meaningful in a crash-free run and is not an invariant here. *)
let queue_integrity ~sites =
  make "queue-integrity" (fun () ->
      let problems = ref [] in
      List.iter
        (fun site ->
          let qm = Site.qm site in
          let seen = Hashtbl.create 64 in
          List.iter
            (fun q ->
              let els = Qm.elements qm q in
              List.iter
                (fun el ->
                  let eid = el.Element.eid in
                  if Hashtbl.mem seen eid then
                    problems :=
                      Printf.sprintf "%s/%s: duplicate eid %Ld"
                        (Site.site_name site) q eid
                      :: !problems
                  else Hashtbl.add seen eid ();
                  if el.Element.delivery_count < 0 then
                    problems :=
                      Printf.sprintf "%s/%s: negative delivery count on %Ld"
                        (Site.site_name site) q eid
                      :: !problems)
                els)
            (Qm.queue_names qm))
        (sites ());
      match !problems with
      | [] -> None
      | ps -> Some (String.concat "; " ps))

(* Exactly-once re-derived from the trace stream alone, with no access to
   end state: every request that was sent or executed must have exactly one
   server execution whose transaction committed. Sound only when the trace
   is complete (no ring wraparound) and no fiber can die between its
   durable force and its commit event, which holds on runs without crashes
   (partitions kill no fibers). A crash breaks it through two windows where
   a committer is parked after its records are durable: a group-commit
   follower waiting for the leader that synced it, and a Sync-mode HA
   committer waiting for its ship ack. A fiber killed there leaves a
   durable commit with no [Txn_commit] event, which reads as a lost
   request. Crashpoint-armed runs can also fire between force and event.
   So this auditor is not in the standard set; [Scenario.run_recorded]
   applies it to crash-free plans. *)
let exactly_once_trace () =
  make "exactly-once-trace" (fun () ->
      if not (Rrq_obs.enabled ()) then
        Some "observability disabled: no trace to audit"
      else if Rrq_obs.Trace.dropped () > 0 then
        Some
          (Printf.sprintf "trace ring dropped %d events; raise the capacity"
             (Rrq_obs.Trace.dropped ()))
      else begin
        let committed = Hashtbl.create 64 in
        let sent = Hashtbl.create 16 in
        (* Executions by (rid, queue): each stage of a chain runs the same
           rid once from its own queue. *)
        let execs : (string * string, string list) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter
          (fun (_ts, ev) ->
            match ev with
            | Rrq_obs.Event.Txn_commit { txid; _ } ->
              Hashtbl.replace committed txid ()
            | Rrq_obs.Event.Clerk_send { rid; _ } -> Hashtbl.replace sent rid ()
            | Rrq_obs.Event.Server_exec { rid; queue; txid; _ } ->
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt execs (rid, queue))
              in
              Hashtbl.replace execs (rid, queue) (txid :: prev)
            | _ -> ())
          (Rrq_obs.Trace.events ());
        let stages =
          List.sort compare
            (Hashtbl.fold (fun key txids acc -> (key, txids) :: acc) execs [])
        in
        if stages = [] && Hashtbl.length sent = 0 then
          Some "trace contains no requests to audit"
        else begin
          let unexecuted =
            Hashtbl.fold
              (fun rid () acc ->
                if List.exists (fun ((r, _), _) -> r = rid) stages then acc
                else (rid ^ ": lost (no execution in trace)") :: acc)
              sent []
          in
          let problems =
            List.sort compare unexecuted
            @ List.filter_map
                (fun ((rid, queue), txids) ->
                  let n = List.length (List.filter (Hashtbl.mem committed) txids) in
                  if n = 0 then
                    Some
                      (Printf.sprintf "%s@%s: lost (no committed execution in trace)"
                         rid queue)
                  else if n > 1 then
                    Some
                      (Printf.sprintf "%s@%s: %d committed executions" rid queue n)
                  else None)
                stages
          in
          match problems with
          | [] -> None
          | ps -> Some (String.concat "; " ps)
        end
      end)

(* The reply elements still queued in [reply.*] queues on [sites], by
   their [rid] property: one pass, then each rid is a table lookup. *)
let queued_replies sites =
  let queued = Hashtbl.create 256 in
  List.iter
    (fun site ->
      let qm = Site.qm site in
      List.iter
        (fun q ->
          if Shard.reply_client q <> None then
            List.iter
              (fun el ->
                match Element.prop el "rid" with
                | Some rid ->
                  Hashtbl.replace queued rid
                    (el.Element.eid
                    :: Option.value ~default:[] (Hashtbl.find_opt queued rid))
                | None -> ())
              (Qm.elements qm q))
        (Qm.queue_names qm))
    sites;
  fun rid -> Option.value ~default:[] (Hashtbl.find_opt queued rid)

let problems check rids =
  match List.filter_map check rids with
  | [] -> None
  | ps -> Some (String.concat "; " ps)

let no_reply rid = rid ^ ": no reply delivered or queued"

(* Every request must yield exactly one reply, counting both the copies
   the client already consumed ([received]) and the copies still sitting
   in reply queues: what a run without crashes shows, where no Receive
   is undone. [sites] must resolve to the authoritative repository
   only — a warm standby holds replicated copies of the same reply
   elements by design. *)
let reply_delivery ~sites ~received ~rids =
  make "reply-delivery" (fun () ->
      let queued = queued_replies (sites ()) in
      problems
        (fun rid ->
          match received rid + List.length (queued rid) with
          | 1 -> None
          | 0 -> Some (no_reply rid)
          | n -> Some (Printf.sprintf "%s: %d replies (received+queued)" rid n))
        (rids ()))

(* The same rule under crashes. Two different replies for one rid is the
   speculative-reply double: a lagged primary that replies before
   shipping dies, the backup re-executes, and the client's retried
   Receive can observe two replies for one rid. The same reply seen twice
   is at-least-once reply processing (paper §3): a Receive is lazy, so a
   crash where the reply queue lives, after the Receive and before its
   fence (its client's next Send or Disconnect), gives the reply back;
   [crashes rid] counts those crashes, and each may give it back once. *)
let replies_seen ~sites ~seen ~crashes ~rids =
  make "reply-delivery" (fun () ->
      let queued = queued_replies (sites ()) in
      problems
        (fun rid ->
          let copies = seen rid @ queued rid in
          match List.sort_uniq Int64.compare copies with
          | [] -> Some (no_reply rid)
          | [ _ ] ->
            let n = List.length copies and c = crashes rid in
            if n <= 1 + c then None
            else
              Some
                (Printf.sprintf
                   "%s: one reply seen %d times (received+queued), %d crash(es) \
                    of its reply queue's nodes between a Receive and its fence"
                   rid n c)
          | replies ->
            Some
              (Printf.sprintf "%s: %d replies (received+queued)" rid
                 (List.length replies)))
        (rids ()))

(* After quiescence with every site up, no transaction may still be in
   doubt: the resolver daemons must have settled every prepared txn. *)
let no_in_doubt ~sites =
  make "no-in-doubt" (fun () ->
      let stuck =
        List.concat_map
          (fun site ->
            List.map
              (fun (id, coord) ->
                Printf.sprintf "%s: %s (coord %s)" (Site.site_name site)
                  (Rrq_txn.Txid.to_string id) coord)
              (Qm.in_doubt (Site.qm site))
            @ List.map
                (fun (id, coord) ->
                  Printf.sprintf "%s(kv): %s (coord %s)" (Site.site_name site)
                    (Rrq_txn.Txid.to_string id) coord)
                (Kvdb.in_doubt (Site.kv site)))
          (sites ())
      in
      match stuck with
      | [] -> None
      | s -> Some ("unresolved in-doubt transactions: " ^ String.concat ", " s))
