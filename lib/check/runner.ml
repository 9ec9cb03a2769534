module Sched = Rrq_sim.Sched

exception Scenario_failure of string

(* Build a world and drive it, like the harness's [run_scenario], but with a
   selectable scheduling policy and the scheduler handed back so callers can
   read the decision trace. The harness delegates here so every experiment
   and every explored schedule runs through the same driver. *)
let run_scenario_traced ?policy ?trace_limit f =
  let s = Sched.create ?policy ?trace_limit () in
  (* If an observability session is active, timestamp its trace events with
     this world's virtual clock. *)
  Rrq_obs.Trace.set_clock (fun () -> Sched.now s);
  let driver = f s in
  let result = ref None in
  ignore (Sched.spawn s ~name:"driver" (fun () -> result := Some (driver ())));
  Sched.run s;
  (match Sched.failures s with
  | [] -> ()
  | (name, e) :: _ ->
    raise
      (Scenario_failure
         (Printf.sprintf "scenario: fiber %s raised %s" name
            (Printexc.to_string e))));
  match !result with
  | Some v -> (v, s)
  | None ->
    raise (Scenario_failure "scenario driver did not complete (simulated deadlock?)")

let run_scenario ?policy f = fst (run_scenario_traced ?policy ~trace_limit:0 f)

let await ?(timeout = 300.0) ?(poll = 0.1) pred =
  let deadline = Sched.clock () +. timeout in
  let rec go () =
    if pred () then true
    else if Sched.clock () >= deadline then false
    else begin
      Sched.sleep poll;
      go ()
    end
  in
  go ()
