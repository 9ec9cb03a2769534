(* The request-path benchmark: open-loop load on five topologies, virtual
   latency and host cost end to end, and a per-layer breakdown. README.md
   in this directory describes the workloads, metrics and bounds.

   Every rep runs in a fresh child process (this executable re-run with
   --child), one child at a time, so host time and peak heap never inherit
   GC state from an earlier rep. *)

module W = Workload
module Histogram = Rrq_util.Histogram

(* ---- metric catalogue --------------------------------------------------- *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  host : bool;  (** Host clock; every other value is virtual, set by the seed. *)
  better : better;
  bound : float;  (** End to end: share by which it may worsen; 0 = any rise. *)
  listed : bool;  (** Named in BENCHMARK.json and printed by --trace. *)
}

let metric ?(host = false) ?(better = Lower) ?(bound = 0.0) ?(listed = true) unit name =
  { name; unit; host; better; bound; listed }

(* p50_ms and failed_frac are printed and compared but not listed: at the
   nominal rates p50 is the uncontended path length on three workloads, the
   same on every seed, and no request fails. The bounds are wide because
   the spread across seeds is: see README.md. *)
let end_to_end =
  [
    metric ~bound:0.02 ~listed:false "ms" "p50_ms";
    metric ~bound:0.20 "ms" "p99_ms";
    metric ~bound:0.12 "ms" "mean_ms";
    metric ~better:Higher ~bound:0.25 "req/s" "max_rps";
    metric ~listed:false "ratio" "failed_frac";
    metric ~host:true ~bound:0.25 "us" "host_us_per_req";
    metric ~host:true ~bound:0.25 "s" "setup_s";
    metric ~host:true ~bound:0.10 "MiB" "peak_heap_mb";
  ]

(* Per-layer metrics, in print order. Time metrics that can hold one value
   on every seed at the nominal rates are printed but not listed: the lag,
   queue-wait and lock-wait spans, which are (nearly) always 0, and the
   percentiles that land on a sum of whole 5 ms forces and 0.5 ms hops. *)
let per_layer =
  let stats base ~listed =
    List.map
      (fun s -> metric ~listed:(List.mem s listed) "ms" (base ^ "." ^ s))
      [ "p50"; "p99"; "mean" ]
  in
  let span base =
    stats base
      ~listed:(match base with
               | "clerk.send_ms" -> [ "p99"; "mean" ]
               | "reply.leg_ms" -> [ "mean" ]
               | _ -> [])
  in
  [ metric ~listed:false "count" "latency_samples";
    metric ~listed:false "count" "p99_samples_beyond" ]
  @ List.concat_map span (Array.to_list W.span_names)
  @ [ metric "1/req" "disk.syncs_per_req"; metric "B/req" "disk.bytes_per_req" ]
  @ List.map (metric "1/req")
      [ "net.msgs_per_req"; "server.aborts_per_req"; "ha.ship_batches_per_req";
        "wal.forces_per_req.qm"; "wal.forces_per_req.kv"; "wal.forces_per_req.tm" ]
  @ [ metric "count" "wal.batch_mean"; metric "B/req" "wal.bytes_per_req" ]
  @ stats "tm.commit_ms" ~listed:[ "p99"; "mean" ]
  @ stats "qm.commit_ms" ~listed:[ "mean" ]
  @ [ metric "ms" "qm.wait_ms.p99"; metric "1/req" "tm.aborts_per_req";
      metric "1/req" "shard.forwards_per_req";
      metric ~host:true "us" "obs.host_us_per_req" ]
  @ List.map (metric ~host:true "ns") Micro.names

let find name = List.find (fun m -> m.name = name) (end_to_end @ per_layer)

(* ---- statistics --------------------------------------------------------- *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Distance between the quartiles over the median, with the quartiles of
   Python's statistics.quantiles(xs, n=4) (its "exclusive" method). *)
let spread xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a and m = median xs in
  if n < 2 || m = 0.0 then 0.0
  else
    let q i =
      let j = min (n - 1) (max 1 (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 3 -. q 1) /. Float.abs m

let minimum xs = List.fold_left Float.min infinity xs

(* ---- child processes ---------------------------------------------------- *)

let child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "--child" :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rep = try Some (Marshal.from_channel ic : W.rep) with End_of_file | Failure _ -> None in
  close_in ic;
  match (snd (Unix.waitpid [] pid), rep) with
  | Unix.WEXITED 0, Some rep -> rep
  | _ -> failwith ("benchmark child failed: " ^ String.concat " " args)

let child_main = function
  | [ kind; wname; seed; requests; rate; extra ] ->
    let w = Option.get (W.find wname) in
    let seed = int_of_string seed and requests = int_of_string requests in
    let rate = float_of_string rate and extra = int_of_string extra in
    let only values findings =
      { W.values; latencies = [||]; attempted = 0; failed = 0; findings; digest = "" }
    in
    let rep =
      match kind with
      | "nominal" -> W.run w ~seed ~requests ~rate
      | "traced" -> W.run ~traced:true w ~seed ~requests ~rate
      | "bisect" ->
        let r, findings = W.max_rate w ~seed ~requests ~probes:extra in
        only [ ("max_rps", r) ] findings
      | "micro" ->
        only
          (List.concat_map
             (fun (name, ns, spread) -> [ (name, ns); (name ^ ":spread", spread) ])
             (Micro.run ~scale:extra))
          []
      | _ -> invalid_arg kind
    in
    let heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
    in
    Marshal.to_channel stdout { rep with values = ("peak_heap_mb", heap_mb) :: rep.values } [];
    flush stdout
  | _ -> invalid_arg "--child"

(* ---- one workload ------------------------------------------------------- *)

type opts = {
  workloads : W.t list;
  seed : int;
  reps : int;
  seconds : float;  (** Wall time to fill with host-only reps. *)
  e2e : bool;
  layers : bool;
  smoke : bool;
}

type result = {
  workload : string;
  metrics : (string * float * float) list;  (** name, value, spread *)
  attempted : int;
  failed : int;
  findings : string list;
  digests : string list;
}

(* The saturation search: 8 log-bisection probes, each long enough that the
   knee it finds moves about 5% between seeds (2,000 requests: 9%). *)
let probes o = if o.smoke then 2 else 8
let probe_requests o = if o.smoke then 200 else 8_000
let smoke_requests = 200

let value (r : W.rep) k = List.assoc k r.values

let run_workload o ~deadline (w : W.t) =
  let requests = if o.smoke then smoke_requests else w.requests in
  (* Rep k of seed S runs at seed 1000 S + k, so invocations with different
     seeds share no rep. *)
  let job kind k ~requests ~rate ~extra =
    child
      [ kind; w.name; string_of_int ((1000 * o.seed) + k); string_of_int requests;
        Printf.sprintf "%.17g" rate; string_of_int extra ]
  in
  let rep kind k = job kind k ~requests ~rate:w.rate ~extra:0 in
  (* Virtual metrics come from a fixed set of reps, so they are a function
     of the seed alone; the top-up reps after them only add host samples. *)
  let nominal = List.init o.reps (rep "nominal") in
  let bisect =
    if o.e2e then [ job "bisect" 0 ~requests:(probe_requests o) ~rate:0.0 ~extra:(probes o) ]
    else []
  in
  let traced = if o.layers then [ rep "traced" 0 ] else [] in
  (* Top up while another rep, as long as the last one, still ends before
     the deadline. *)
  let top_kind = if o.e2e then "nominal" else "traced" in
  let rec top_up k last acc =
    let now = Unix.gettimeofday () in
    if now +. last > deadline || k >= o.reps + 100 then List.rev acc
    else
      let r = rep top_kind k in
      top_up (k + 1) (Unix.gettimeofday () -. now) (r :: acc)
  in
  let extra = top_up o.reps 0.0 [] in
  let host_nominal = if o.e2e then nominal @ extra else nominal in
  let host_traced = if o.e2e then traced else traced @ extra in
  let per_rep reps k = List.map (fun r -> value r k) reps in
  let agg stat reps k = (k, stat (per_rep reps k), spread (per_rep reps k)) in
  let pooled =
    let h = Histogram.create () in
    List.iter (fun (r : W.rep) -> Array.iter (Histogram.add h) r.latencies) nominal;
    h
  in
  let p99 = Histogram.percentile pooled 0.99 in
  let beyond =
    List.fold_left
      (fun acc (r : W.rep) ->
        Array.fold_left (fun acc l -> if l > p99 then acc + 1 else acc) acc r.latencies)
      0 nominal
  in
  let counted = host_nominal @ host_traced in
  let attempted = List.fold_left (fun acc (r : W.rep) -> acc + r.attempted) 0 counted in
  let failed = List.fold_left (fun acc (r : W.rep) -> acc + r.failed) 0 counted in
  let e2e =
    if not o.e2e then []
    else
      [
        ("p50_ms", Histogram.percentile pooled 0.5, spread (per_rep nominal "p50_ms"));
        ("p99_ms", p99, spread (per_rep nominal "p99_ms"));
        ("mean_ms", Histogram.mean pooled, spread (per_rep nominal "mean_ms"));
        agg median bisect "max_rps";
        ("failed_frac", float_of_int failed /. float_of_int (max 1 attempted), 0.0);
        agg minimum host_nominal "host_us_per_req";
        agg median host_nominal "setup_s";
        agg median host_nominal "peak_heap_mb";
      ]
  in
  let layers =
    if not o.layers then []
    else
      List.filter_map
        (fun m ->
          match m.name with
          | "latency_samples" -> Some (m.name, float_of_int (Histogram.count pooled), 0.0)
          | "p99_samples_beyond" -> Some (m.name, float_of_int beyond, 0.0)
          | "obs.host_us_per_req" ->
            let _, v, s = agg minimum host_traced "host_us_per_req" in
            Some (m.name, v, s)
          | k when List.mem_assoc k (List.hd nominal).values -> Some (agg median nominal k)
          | k when List.mem_assoc k (List.hd traced).values -> Some (agg median traced k)
          | _ -> None)
        per_layer
  in
  (* The traced rep and the first nominal rep share a seed: recording must
     not change a single virtual timestamp or count. *)
  let passivity =
    match (traced, nominal) with
    | t :: _, n :: _ when t.digest <> n.digest ->
      [ w.name ^ ": the traced rep's virtual behaviour differs from the untraced rep's" ]
    | _ -> []
  in
  {
    workload = w.name;
    metrics = e2e @ layers;
    attempted;
    failed;
    findings =
      List.concat_map (fun (r : W.rep) -> r.findings) (nominal @ bisect @ traced @ extra)
      @ passivity;
    digests = List.map (fun (r : W.rep) -> r.digest) (nominal @ traced);
  }

(* Host cost per layer, once per invocation, in a child of its own. *)
let micro o =
  let r = child [ "micro"; "single"; "0"; "0"; "0"; string_of_int (if o.smoke then 100 else 1) ] in
  List.map (fun k -> (k, value r k, value r (k ^ ":spread"))) Micro.names

(* ---- output ------------------------------------------------------------- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_lines res =
  List.iter
    (fun (k, v, s) ->
      Printf.printf "%-12s %-26s %14.6g %-6s spread=%.4f\n" res.workload k v (find k).unit s)
    res.metrics

let jsonl_line workload (k, v, s) =
  Printf.sprintf {|{"workload":"%s","metric":"%s","value":%s,"unit":"%s","spread":%s}|}
    workload k (json_float v) (find k).unit (json_float s)

(* The last stdout line of a --trace run: one JSON object for its one
   workload. *)
let summary_line res ~correct =
  let metrics =
    List.filter_map
      (fun (k, v, _) ->
        if (find k).listed then
          Some (Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} k (json_float v) (find k).unit)
        else None)
      res.metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    res.attempted res.failed (String.concat ", " metrics);
  print_newline ()

(* ---- --compare ---------------------------------------------------------- *)

(* The raw text of field [key] in one line that [jsonl_line] wrote. *)
let field line key =
  let pat = Printf.sprintf {|"%s":|} key in
  let lp = String.length pat and n = String.length line in
  let rec find i =
    if i + lp > n then None else if String.sub line i lp = pat then Some (i + lp) else find (i + 1)
  in
  Option.map
    (fun i ->
      if line.[i] = '"' then String.sub line (i + 1) (String.index_from line (i + 1) '"' - i - 1)
      else
        let j = ref i in
        while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
        String.sub line i (!j - i))
    (find 0)

let read_base file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> (
      match (field line "workload", field line "metric", field line "value", field line "spread") with
      | Some w, Some m, Some v, Some s -> (
        match (float_of_string_opt v, float_of_string_opt s) with
        | Some v, Some s -> go (((w, m), (v, s)) :: acc)
        | _ -> go acc)
      | _ -> go acc)
    | exception End_of_file ->
      close_in ic;
      acc
  in
  go []

(* One verdict per (workload, end-to-end metric): better, within bound,
   worse than bound, or unresolved when either side's spread exceeds the
   bound. Returns whether any metric got worse than its bound. *)
let compare_with file results =
  let base = read_base file in
  List.fold_left
    (fun regressed res ->
      List.fold_left
        (fun regressed m ->
          match
            (List.assoc_opt (res.workload, m.name) base,
             List.find_opt (fun (k, _, _) -> k = m.name) res.metrics)
          with
          | Some (b, bs), Some (_, v, s) ->
            let worse =
              if b = 0.0 then if v > 0.0 then infinity else 0.0
              else match m.better with Lower -> (v -. b) /. b | Higher -> (b -. v) /. b
            in
            let verdict =
              if m.bound = 0.0 then if worse > 0.0 then "worse than bound" else "within bound"
              else if Float.max s bs > m.bound then "unresolved"
              else if worse > m.bound then "worse than bound"
              else if worse < -.m.bound then "better"
              else "within bound"
            in
            Printf.printf "compare %-12s %-16s base %-12.6g now %-12.6g %+7.2f%% (bound %g%%) %s\n"
              res.workload m.name b v (100.0 *. worse) (100.0 *. m.bound) verdict;
            regressed || verdict = "worse than bound"
          | _ -> regressed)
        regressed end_to_end)
    false results

(* ---- command line ------------------------------------------------------- *)

let usage =
  "usage: main.exe [--workload NAME]... [--seed S] [--reps N] [--seconds T] [--trace 0|1]\n\
  \                [--smoke] [--json FILE] [--compare BASE.jsonl]\n\
  \  workloads: " ^ String.concat " " (List.map (fun (w : W.t) -> w.name) W.all)

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

(* Each workload gets [o.seconds] of wall time; the first one's includes
   the host microbenchmarks, which run first. *)
let run_all o =
  let deadline = Unix.gettimeofday () +. o.seconds in
  let host =
    if not o.layers then []
    else
      [ { workload = "all"; metrics = micro o; attempted = 0; failed = 0; findings = [];
          digests = [] } ]
  in
  let results, _ =
    List.fold_left
      (fun (acc, deadline) w ->
        (run_workload o ~deadline w :: acc, Unix.gettimeofday () +. o.seconds))
      ([], deadline) o.workloads
  in
  List.rev results @ host

let virtual_lines results =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (k, v, _) ->
          if (find k).host then None else Some (Printf.sprintf "%s %s %h" r.workload k v))
        r.metrics
      @ r.digests)
    results

let () =
  match Array.to_list Sys.argv with
  | _ :: "--child" :: args -> child_main args
  | _ :: args ->
    let names = ref [] and seed = ref 1 and reps = ref 5 and seconds = ref 0.0 in
    let trace = ref None and smoke = ref false and json = ref None and base = ref None in
    let number conv s = match conv s with Some n -> n | None -> die ("not a number: " ^ s) in
    let rec parse = function
      | [] -> ()
      | "--workload" :: n :: rest -> names := !names @ [ n ]; parse rest
      | "--seed" :: s :: rest -> seed := number int_of_string_opt s; parse rest
      | "--reps" :: n :: rest -> reps := max 1 (number int_of_string_opt n); parse rest
      | "--seconds" :: s :: rest -> seconds := number float_of_string_opt s; parse rest
      | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
      | "--smoke" :: rest -> smoke := true; parse rest
      | "--json" :: f :: rest -> json := Some f; parse rest
      | "--compare" :: f :: rest -> base := Some f; parse rest
      | a :: _ -> die ("unexpected argument: " ^ a)
    in
    parse args;
    let workloads =
      if !names = [] then W.all
      else
        List.map
          (fun n -> match W.find n with Some w -> w | None -> die ("unknown workload: " ^ n))
          !names
    in
    if !trace <> None && List.length workloads <> 1 then die "--trace needs exactly one --workload";
    let o =
      { workloads; seed = !seed; reps = (if !smoke then 1 else !reps); seconds = !seconds;
        e2e = !trace <> Some true; layers = !trace <> Some false; smoke = !smoke }
    in
    let results = run_all o in
    let findings = List.concat_map (fun r -> r.findings) results in
    List.iter prerr_endline findings;
    let ok = ref (findings = [] && List.for_all (fun r -> r.failed = 0) results) in
    if o.smoke then begin
      if virtual_lines results <> virtual_lines (run_all o) then begin
        prerr_endline "smoke: virtual metrics differ between two runs with the same seed";
        ok := false
      end;
      if !ok then
        print_endline "load smoke: every workload's checks pass and its virtual metrics repeat"
    end
    else List.iter print_lines results;
    Option.iter
      (fun f ->
        let oc = open_out f in
        List.iter
          (fun r -> List.iter (fun m -> output_string oc (jsonl_line r.workload m ^ "\n")) r.metrics)
          results;
        close_out oc)
      !json;
    let regressed = match !base with Some f -> compare_with f results | None -> false in
    if !trace <> None then
      summary_line
        { (List.hd results) with metrics = List.concat_map (fun r -> r.metrics) results }
        ~correct:!ok;
    if (not !ok) || regressed then exit 1
  | [] -> die "no arguments"
