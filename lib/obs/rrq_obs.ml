module Histogram = Rrq_util.Histogram

let on = ref false
let enabled () = !on

(* Shared by the metrics JSON renderer and the event JSON-lines dump. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = "\"" ^ json_escape s ^ "\""

(* Deterministic float rendering (no locale, fixed precision) so JSON and
   text dumps are byte-stable across runs — the trace-determinism test in
   test_check.ml diffs whole dumps. *)
let fstr v = Printf.sprintf "%.6g" v

module Metrics = struct
  type series = { mutable buf : float array; mutable len : int }

  let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64
  let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 64
  let samples : (string, series) Hashtbl.t = Hashtbl.create 64

  let clear () =
    Hashtbl.reset counters;
    Hashtbl.reset gauges;
    Hashtbl.reset samples

  let inc ?(by = 1) name =
    if !on then
      match Hashtbl.find_opt counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace counters name (ref by)

  let set_gauge name v =
    if !on then
      match Hashtbl.find_opt gauges name with
      | Some r -> r := v
      | None -> Hashtbl.replace gauges name (ref v)

  let observe name v =
    if !on then begin
      let s =
        match Hashtbl.find_opt samples name with
        | Some s -> s
        | None ->
          let s = { buf = Array.make 16 0.0; len = 0 } in
          Hashtbl.replace samples name s;
          s
      in
      if s.len = Array.length s.buf then begin
        let bigger = Array.make (2 * Array.length s.buf) 0.0 in
        Array.blit s.buf 0 bigger 0 s.len;
        s.buf <- bigger
      end;
      s.buf.(s.len) <- v;
      s.len <- s.len + 1
    end

  let counter name =
    match Hashtbl.find_opt counters name with Some r -> !r | None -> 0

  let gauge name =
    match Hashtbl.find_opt gauges name with Some r -> !r | None -> 0.0

  let sum_counters ~prefix =
    Hashtbl.fold
      (fun k r acc ->
        if String.starts_with ~prefix k then acc + !r else acc)
      counters 0

  let sum_gauges ~prefix =
    Hashtbl.fold
      (fun k r acc ->
        if String.starts_with ~prefix k then acc +. !r else acc)
      gauges 0.0

  type snapshot = {
    s_counters : (string * int) list;
    s_gauges : (string * float) list;
    s_samples : (string * float array) list;
  }

  let by_name (a, _) (b, _) = compare a b

  let snapshot () =
    {
      s_counters =
        List.sort by_name
          (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counters []);
      s_gauges =
        List.sort by_name
          (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) gauges []);
      s_samples =
        List.sort by_name
          (Hashtbl.fold
             (fun k s acc -> (k, Array.sub s.buf 0 s.len) :: acc)
             samples []);
    }

  let find_counter snap name =
    match List.assoc_opt name snap.s_counters with Some v -> v | None -> 0

  let find_gauge snap name =
    match List.assoc_opt name snap.s_gauges with Some v -> v | None -> 0.0

  (* Series are append-only and never reordered, so [before]'s length is a
     valid cut point into [after]'s samples. *)
  let diff ~before ~after =
    {
      s_counters =
        List.map
          (fun (k, v) -> (k, v - find_counter before k))
          after.s_counters;
      s_gauges = after.s_gauges;
      s_samples =
        List.map
          (fun (k, arr) ->
            let skip =
              match List.assoc_opt k before.s_samples with
              | Some prev -> Array.length prev
              | None -> 0
            in
            (k, Array.sub arr skip (Array.length arr - skip)))
          after.s_samples;
    }

  let histogram snap name =
    let h = Histogram.create () in
    (match List.assoc_opt name snap.s_samples with
    | Some arr -> Array.iter (Histogram.add h) arr
    | None -> ());
    h

  let to_text snap =
    let b = Buffer.create 1024 in
    Buffer.add_string b "== counters ==\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-44s %d\n" k v))
      snap.s_counters;
    Buffer.add_string b "== gauges ==\n";
    List.iter
      (fun (k, v) ->
        Buffer.add_string b (Printf.sprintf "  %-44s %s\n" k (fstr v)))
      snap.s_gauges;
    Buffer.add_string b "== histograms ==\n";
    List.iter
      (fun (k, _) ->
        let h = histogram snap k in
        Buffer.add_string b
          (Printf.sprintf "  %-44s %s\n" k (Histogram.summary h)))
      snap.s_samples;
    Buffer.contents b

  let to_json snap =
    let b = Buffer.create 1024 in
    let obj section render items =
      Buffer.add_string b (json_str section);
      Buffer.add_string b ":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (json_str k);
          Buffer.add_char b ':';
          Buffer.add_string b (render v))
        items;
      Buffer.add_char b '}'
    in
    Buffer.add_char b '{';
    obj "counters" string_of_int snap.s_counters;
    Buffer.add_char b ',';
    obj "gauges" fstr snap.s_gauges;
    Buffer.add_char b ',';
    obj "histograms"
      (fun arr ->
        let h = Histogram.create () in
        Array.iter (Histogram.add h) arr;
        Printf.sprintf
          "{\"count\":%d,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}"
          (Histogram.count h)
          (fstr (Histogram.mean h))
          (fstr (Histogram.percentile h 0.50))
          (fstr (Histogram.percentile h 0.95))
          (fstr (Histogram.percentile h 0.99))
          (fstr (Histogram.max_value h)))
      snap.s_samples;
    Buffer.add_char b '}';
    Buffer.contents b
end

module Event = struct
  type t =
    | Enqueue of { qm : string; queue : string; eid : int64; txid : string }
    | Dequeue of { qm : string; queue : string; eid : int64; txid : string }
    | Read of { qm : string; queue : string; found : bool }
    | Error_spill of {
        qm : string;
        error_queue : string;
        eid : int64;
        code : string;
      }
    | Txn_begin of { tm : string; txid : string }
    | Txn_commit of { tm : string; txid : string }
    | Txn_abort of { tm : string; txid : string }
    | Txn_staged of { tm : string; txid : string }
    | Txn_vote of { tm : string; txid : string; rm : string; yes : bool }
    | Txn_resolve of { tm : string; txid : string; commit : bool }
    | Wal_append of { wal : string; lsn : int; bytes : int }
    | Wal_force of { wal : string; lsn : int }
    | Batch_seal of { wal : string; batch : int }
    | Crashpoint_fired of { site : string; hit : int }
    | Client_fsm of {
        client : string;
        from_state : string;
        event : string;
        to_state : string;
      }
    | Clerk_send of { client : string; rid : string; eid : int64 }
    | Clerk_receive of { client : string; rid : string }
    | Server_exec of {
        server : string;
        queue : string;
        rid : string;
        txid : string;
      }
    | Shard_forward of { node : string; owner : string; version : int }
    | Shard_map_install of { node : string; version : int }

  (* kind tag + named fields; the names feed the JSON renderer, the order
     feeds the '|'-separated codec. *)
  let fields = function
    | Enqueue { qm; queue; eid; txid } ->
      ( "enq",
        [
          ("qm", qm);
          ("queue", queue);
          ("eid", Int64.to_string eid);
          ("txid", txid);
        ] )
    | Dequeue { qm; queue; eid; txid } ->
      ( "deq",
        [
          ("qm", qm);
          ("queue", queue);
          ("eid", Int64.to_string eid);
          ("txid", txid);
        ] )
    | Read { qm; queue; found } ->
      ("read", [ ("qm", qm); ("queue", queue); ("found", string_of_bool found) ])
    | Error_spill { qm; error_queue; eid; code } ->
      ( "spill",
        [
          ("qm", qm);
          ("error_queue", error_queue);
          ("eid", Int64.to_string eid);
          ("code", code);
        ] )
    | Txn_begin { tm; txid } -> ("begin", [ ("tm", tm); ("txid", txid) ])
    | Txn_commit { tm; txid } -> ("commit", [ ("tm", tm); ("txid", txid) ])
    | Txn_abort { tm; txid } -> ("abort", [ ("tm", tm); ("txid", txid) ])
    | Txn_staged { tm; txid } -> ("staged", [ ("tm", tm); ("txid", txid) ])
    | Txn_vote { tm; txid; rm; yes } ->
      ( "vote",
        [ ("tm", tm); ("txid", txid); ("rm", rm); ("yes", string_of_bool yes) ] )
    | Txn_resolve { tm; txid; commit } ->
      ( "resolve",
        [ ("tm", tm); ("txid", txid); ("commit", string_of_bool commit) ] )
    | Wal_append { wal; lsn; bytes } ->
      ( "wappend",
        [ ("wal", wal); ("lsn", string_of_int lsn); ("bytes", string_of_int bytes) ]
      )
    | Wal_force { wal; lsn } ->
      ("wforce", [ ("wal", wal); ("lsn", string_of_int lsn) ])
    | Batch_seal { wal; batch } ->
      ("seal", [ ("wal", wal); ("batch", string_of_int batch) ])
    | Crashpoint_fired { site; hit } ->
      ("crashpoint", [ ("site", site); ("hit", string_of_int hit) ])
    | Client_fsm { client; from_state; event; to_state } ->
      ( "fsm",
        [
          ("client", client);
          ("from", from_state);
          ("event", event);
          ("to", to_state);
        ] )
    | Clerk_send { client; rid; eid } ->
      ("send", [ ("client", client); ("rid", rid); ("eid", Int64.to_string eid) ])
    | Clerk_receive { client; rid } ->
      ("receive", [ ("client", client); ("rid", rid) ])
    | Server_exec { server; queue; rid; txid } ->
      ( "exec",
        [ ("server", server); ("queue", queue); ("rid", rid); ("txid", txid) ] )
    | Shard_forward { node; owner; version } ->
      ( "shfwd",
        [ ("node", node); ("owner", owner); ("version", string_of_int version) ]
      )
    | Shard_map_install { node; version } ->
      ("shmap", [ ("node", node); ("version", string_of_int version) ])

  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '|' -> Buffer.add_string b "\\!"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let unescape s =
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      if s.[!i] = '\\' && !i + 1 < n then begin
        (match s.[!i + 1] with
        | '\\' -> Buffer.add_char b '\\'
        | '!' -> Buffer.add_char b '|'
        | 'n' -> Buffer.add_char b '\n'
        | c -> Buffer.add_char b c);
        i := !i + 2
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b

  let to_string t =
    let kind, fs = fields t in
    String.concat "|" (kind :: List.map (fun (_, v) -> escape v) fs)

  (* Split on unescaped '|' only, then unescape each field. *)
  let split_fields s =
    let parts = ref [] in
    let b = Buffer.create 16 in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      if s.[!i] = '\\' && !i + 1 < n then begin
        Buffer.add_char b s.[!i];
        Buffer.add_char b s.[!i + 1];
        i := !i + 2
      end
      else if s.[!i] = '|' then begin
        parts := Buffer.contents b :: !parts;
        Buffer.clear b;
        incr i
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    parts := Buffer.contents b :: !parts;
    List.rev_map unescape !parts

  let of_string s =
    match split_fields s with
    | [ "enq"; qm; queue; eid; txid ] ->
      Enqueue { qm; queue; eid = Int64.of_string eid; txid }
    | [ "deq"; qm; queue; eid; txid ] ->
      Dequeue { qm; queue; eid = Int64.of_string eid; txid }
    | [ "read"; qm; queue; found ] ->
      Read { qm; queue; found = bool_of_string found }
    | [ "spill"; qm; error_queue; eid; code ] ->
      Error_spill { qm; error_queue; eid = Int64.of_string eid; code }
    | [ "begin"; tm; txid ] -> Txn_begin { tm; txid }
    | [ "commit"; tm; txid ] -> Txn_commit { tm; txid }
    | [ "abort"; tm; txid ] -> Txn_abort { tm; txid }
    | [ "staged"; tm; txid ] -> Txn_staged { tm; txid }
    | [ "vote"; tm; txid; rm; yes ] ->
      Txn_vote { tm; txid; rm; yes = bool_of_string yes }
    | [ "resolve"; tm; txid; commit ] ->
      Txn_resolve { tm; txid; commit = bool_of_string commit }
    | [ "wappend"; wal; lsn; bytes ] ->
      Wal_append { wal; lsn = int_of_string lsn; bytes = int_of_string bytes }
    | [ "wforce"; wal; lsn ] -> Wal_force { wal; lsn = int_of_string lsn }
    | [ "seal"; wal; batch ] | [ "seal"; wal; batch; _ ] ->
      (* Older recordings carry a fourth field, a seal reason: dropped. *)
      Batch_seal { wal; batch = int_of_string batch }
    | [ "crashpoint"; site; hit ] ->
      Crashpoint_fired { site; hit = int_of_string hit }
    | [ "fsm"; client; from_state; event; to_state ] ->
      Client_fsm { client; from_state; event; to_state }
    | [ "send"; client; rid; eid ] ->
      Clerk_send { client; rid; eid = Int64.of_string eid }
    | [ "receive"; client; rid ] -> Clerk_receive { client; rid }
    | [ "exec"; server; queue; rid; txid ] ->
      Server_exec { server; queue; rid; txid }
    | [ "shfwd"; node; owner; version ] ->
      Shard_forward { node; owner; version = int_of_string version }
    | [ "shmap"; node; version ] ->
      Shard_map_install { node; version = int_of_string version }
    | _ -> failwith ("Rrq_obs.Event.of_string: unparseable event: " ^ s)

  (* Numeric-looking fields stay numeric in JSON for easy jq filtering. *)
  let numeric_fields =
    [ "lsn"; "bytes"; "batch"; "hit"; "found"; "version"; "yes"; "commit" ]

  let to_json_line ~ts t =
    let kind, fs = fields t in
    let b = Buffer.create 128 in
    Buffer.add_string b "{\"ts\":";
    Buffer.add_string b (fstr ts);
    Buffer.add_string b ",\"type\":";
    Buffer.add_string b (json_str kind);
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ',';
        Buffer.add_string b (json_str k);
        Buffer.add_char b ':';
        if List.mem k numeric_fields then Buffer.add_string b v
        else Buffer.add_string b (json_str v))
      fs;
    Buffer.add_char b '}';
    Buffer.contents b
end

module Trace = struct
  let default_clock () = 0.0
  let clock = ref default_clock
  let set_clock f = clock := f

  let ring : (float * Event.t) option array ref = ref [||]
  let cap = ref 0
  let emitted = ref 0

  let reset_ring capacity =
    ring := Array.make capacity None;
    cap := capacity;
    emitted := 0

  let emit ev =
    if !on && !cap > 0 then begin
      !ring.(!emitted mod !cap) <- Some (!clock (), ev);
      incr emitted
    end

  let length () = min !emitted !cap
  let dropped () = max 0 (!emitted - !cap)

  let events () =
    let n = length () in
    let start = !emitted - n in
    List.init n (fun k ->
        match !ring.((start + k) mod !cap) with
        | Some e -> e
        | None -> assert false)

  let dump_jsonl () =
    let b = Buffer.create 4096 in
    List.iter
      (fun (ts, ev) ->
        Buffer.add_string b (Event.to_json_line ~ts ev);
        Buffer.add_char b '\n')
      (events ());
    Buffer.contents b
end

module Lock_order = struct
  (* Per-transaction first-acquisition order across lock-manager
     instances, fed by the hooks in Rrq_txn.Lock at grant and release
     points. [held] maps a live transaction to the instance classes it
     holds, in first-acquisition order (head newest); [seen] is the edge
     set the run accumulated. Lock transfers (strict-FIFO handoff) move
     keys without a grant, so the receiving transaction under-reports —
     the safe direction for an observed-⊆-static check. *)
  let held : (string, string list) Hashtbl.t = Hashtbl.create 64
  let seen : (string * string, unit) Hashtbl.t = Hashtbl.create 64

  let clear () =
    Hashtbl.reset held;
    Hashtbl.reset seen

  let note_acquire ~txid cls =
    if !on then begin
      let prior = Option.value ~default:[] (Hashtbl.find_opt held txid) in
      if List.mem cls prior then
        (* another key inside a class already held: a within-instance
           re-acquisition, the self-edge *)
        Hashtbl.replace seen (cls, cls) ()
      else begin
        List.iter (fun h -> Hashtbl.replace seen (h, cls) ()) prior;
        Hashtbl.replace held txid (cls :: prior)
      end
    end

  let note_release_all ~txid = if !on then Hashtbl.remove held txid

  let edges () =
    List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) seen [])
end

let reset ?(trace_capacity = 65536) () =
  Metrics.clear ();
  Trace.reset_ring trace_capacity;
  Trace.set_clock Trace.default_clock;
  Lock_order.clear ();
  on := true

let disable () = on := false
