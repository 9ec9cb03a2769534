(* rrq_demo: command-line front door to the experiment harness.

   - `rrq_demo experiments [NAME...]` prints the EXPERIMENTS.md tables
     (all of them, or a subset by name: e1 e2 e3 b2 b3 b4 b6 b7 b8);
   - `rrq_demo check` explores fault plans over a checker scenario, sweeps
     its crash sites or replays one plan, and exits non-zero on a finding;
   - `rrq_demo stats` dumps a recorded fault-free run's metrics. *)

open Cmdliner
module H = Rrq_harness
module Table = Rrq_util.Table

let run_experiment name =
  match String.lowercase_ascii name with
  | "e1" -> Table.print (H.E_exactly_once.table (H.E_exactly_once.run ()))
  | "e2" -> Table.print (H.E_chain.crash_table (H.E_chain.run_crash_matrix ()))
  | "e3" -> Table.print (H.E_interactive.table (H.E_interactive.run ()))
  | "b2" -> Table.print (H.E_contention.table (H.E_contention.run ()))
  | "b3" | "b5" -> Table.print (H.E_queueing.drain_table (H.E_queueing.run_drain ()))
  | "b4" -> Table.print (H.E_queueing.burst_table (H.E_queueing.run_burst ()))
  | "b6" -> Table.print (H.E_chain.contention_table (H.E_chain.run_contention ()))
  | "b7" -> Table.print (H.E_recovery.table (H.E_recovery.run ()))
  | "b8" ->
    Table.print (H.E_chain.serializability_table (H.E_chain.run_serializability ()))
  | "b9" -> Table.print (H.E_replication.table (H.E_replication.run ()))
  | "b10" -> Table.print (H.E_stream.table (H.E_stream.run ()))
  | "b11" ->
    Table.print (H.E_queueing.priority_table (H.E_queueing.run_priority ()))
  | "a1" -> Table.print (H.E_queueing.poison_table (H.E_queueing.run_poison ()))
  | other ->
    Printf.eprintf "unknown experiment %S (try e1 e2 e3 b2 b3 b4 b6 b7 b8 b9)\n" other;
    exit 2

let all_experiments =
  [ "e1"; "e2"; "e3"; "b2"; "b3"; "b4"; "b6"; "b7"; "b8"; "b9"; "b10"; "b11"; "a1" ]

let experiments_cmd =
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME"
           ~doc:"Experiments to run (default: all). One of e1 e2 e3 b2 b3 b4 b6 b7 b8 b9.")
  in
  let run names =
    let names = if names = [] then all_experiments else names in
    List.iter run_experiment names
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Print the EXPERIMENTS.md tables")
    Term.(const run $ names)

module C = Rrq_check

let scenario_names =
  String.concat ", " (List.map (fun s -> s.C.Scenario.name) C.Scenario.all)

let scenario_arg doc =
  Arg.(value & opt string "quickstart" & info [ "scenario" ] ~docv:"NAME"
         ~doc:(doc ^ " One of " ^ scenario_names ^ "."))

let find_scenario name =
  match C.Scenario.by_name name with
  | Some s -> s
  | None ->
    Printf.eprintf "unknown scenario %S (try %s)\n" name scenario_names;
    exit 2

let check_cmd =
  let scenario_arg =
    scenario_arg
      "Scenario to check (see doc/INTERNALS.md section 1a; ha-lagged, \
       sharded-buggy, sharded-unfenced and buggy carry designed, catchable \
       bugs)."
  in
  let budget =
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N"
           ~doc:"Fault plans to explore (stops at the first failure).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"Base seed for plan generation.")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PLAN"
           ~doc:"Run this one fault plan (as printed in a repro line) \
                 instead of exploring.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"With --replay: print the scheduling-decision trace.")
  in
  let sites =
    Arg.(value & flag & info [ "sites" ]
           ~doc:"Enumerate the named crash sites the selected scenario's \
                 probe plan reaches and crash at every (site, hit) \
                 combination.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"With --replay: record the run under the observability layer \
                 and write its JSON-lines trace-event dump to FILE (the \
                 trace-based exactly-once auditor joins the audit).")
  in
  let run scen_name budget seed replay trace sites trace_out =
    let scenario = find_scenario scen_name in
    if sites then begin
      let visited, crashes = C.Scenario.sweep ~recover_after:1.0 scenario in
      let armed = List.length crashes in
      let fired = List.length (List.filter (fun c -> c.C.Scenario.fired) crashes) in
      let failures =
        List.filter
          (fun (c : C.Scenario.crash) ->
            let problem =
              if not c.fired then Some "the armed crash never fired"
              else if c.findings <> [] then
                Some (C.Audit.findings_to_string c.findings)
              else None
            in
            Option.iter
              (Printf.printf "  %-28s hit %d  FAILED: %s\n" c.site c.hit)
              problem;
            problem <> None)
          crashes
      in
      Printf.printf
        "crash-site sweep: %d sites, %d (site, hit) combinations, %d of %d \
         armed crashes fired\n"
        (List.length visited) armed fired armed;
      List.iter (fun (s, n) -> Printf.printf "  %-28s x%d\n" s n) visited;
      if failures = [] then print_endline "all crash points recovered cleanly"
      else begin
        Printf.printf "%d crash points FAILED their audit\n" (List.length failures);
        exit 1
      end
    end
    else
      match replay with
      | Some line ->
        let plan = C.Plan.of_string line in
        let o =
          match trace_out with
          | None -> C.Scenario.run scenario plan
          | Some file ->
            let r = C.Scenario.run_recorded scenario plan in
            let oc = open_out file in
            output_string oc r.C.Scenario.rec_trace;
            close_out oc;
            Printf.printf "trace: %d events written to %s\n"
              (String.fold_left
                 (fun n c -> if c = '\n' then n + 1 else n)
                 0 r.C.Scenario.rec_trace)
              file;
            r.C.Scenario.rec_outcome
        in
        Printf.printf "%s: %s (%d/%d replies, t=%.1f)\n" scenario.C.Scenario.name
          (C.Audit.findings_to_string o.C.Scenario.findings)
          o.C.Scenario.replies o.C.Scenario.requests o.C.Scenario.virtual_time;
        if trace then begin
          Printf.printf "trace (%d decisions%s):\n"
            (Array.length o.C.Scenario.trace)
            (if o.C.Scenario.trace_truncated then ", TRUNCATED" else "");
          print_endline (Rrq_sim.Sched.trace_to_string o.C.Scenario.trace)
        end;
        if C.Scenario.failed o then exit 1
      | None ->
        let report = C.Explore.run ~budget ~seed scenario in
        print_endline (C.Explore.report_to_string report);
        if report.C.Explore.failure <> None then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Deterministic simulation testing: explore fault \
                            schedules, enumerate crash points, replay repros")
    Term.(const run $ scenario_arg $ budget $ seed $ replay $ trace $ sites
          $ trace_out)

let stats_cmd =
  let scenario_arg = scenario_arg "Scenario to run." in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for the (fault-free) plan.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the metrics registry as JSON instead of text.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Also write the JSON-lines trace-event dump to FILE.")
  in
  let run scen_name seed json trace_out =
    let scenario = find_scenario scen_name in
    let plan = C.Plan.make ~seed ~policy:`Fifo ~faults:[] in
    let r = C.Scenario.run_recorded scenario plan in
    (match trace_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc r.C.Scenario.rec_trace;
      close_out oc);
    if json then print_endline (Rrq_obs.Metrics.to_json r.C.Scenario.rec_metrics)
    else begin
      print_string (Rrq_obs.Metrics.to_text r.C.Scenario.rec_metrics);
      let o = r.C.Scenario.rec_outcome in
      Printf.printf "audit: %s (%d/%d replies, t=%.1f)\n"
        (C.Audit.findings_to_string o.C.Scenario.findings)
        o.C.Scenario.replies o.C.Scenario.requests o.C.Scenario.virtual_time
    end;
    if C.Scenario.failed r.C.Scenario.rec_outcome then exit 1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a scenario fault-free under the observability layer and \
             dump its metrics registry (text or JSON) and trace events")
    Term.(const run $ scenario_arg $ seed $ json $ trace_out)

let () =
  let doc = "recoverable-request queuing (Bernstein/Hsu/Mann, SIGMOD 1990) demos" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "rrq_demo" ~doc)
          [ experiments_cmd; check_cmd; stats_cmd ]))
