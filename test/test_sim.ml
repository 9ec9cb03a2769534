(* Tests for the discrete-event scheduler, channels, ivars and conditions. *)

module Sched = Rrq_sim.Sched
module Chan = Rrq_sim.Chan
module Ivar = Rrq_sim.Ivar
module Cond = Rrq_sim.Cond

let run_sim f =
  let s = Sched.create () in
  f s;
  Sched.run s;
  Alcotest.(check (list (pair string pass)))
    "no unhandled fiber exceptions" [] (Sched.failures s);
  s

let test_sleep_order () =
  let log = ref [] in
  let push tag = log := tag :: !log in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~name:"a" (fun () ->
               Sched.sleep 3.0;
               push "a"));
        ignore
          (Sched.spawn s ~name:"b" (fun () ->
               Sched.sleep 1.0;
               push "b";
               Sched.sleep 3.0;
               push "b2"));
        ignore (Sched.spawn s ~name:"c" (fun () -> push "c")))
  in
  Alcotest.(check (list string)) "order" [ "c"; "b"; "a"; "b2" ] (List.rev !log)

let test_virtual_time () =
  let seen = ref 0.0 in
  let s =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~name:"t" (fun () ->
               Sched.sleep 5.0;
               Sched.sleep 2.5;
               seen := Sched.clock ())))
  in
  Alcotest.(check (float 1e-9)) "clock inside fiber" 7.5 !seen;
  Alcotest.(check (float 1e-9)) "final scheduler time" 7.5 (Sched.now s)

let test_chan_fifo () =
  let got = ref [] in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        ignore
          (Sched.spawn s ~name:"consumer" (fun () ->
               for _ = 1 to 3 do
                 got := Chan.recv c :: !got
               done));
        ignore
          (Sched.spawn s ~name:"producer" (fun () ->
               List.iter (Chan.send c) [ 1; 2; 3 ])))
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_chan_timeout () =
  let r1 = ref (Some 99) and r2 = ref None in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               r1 := Chan.recv_timeout c 1.0;
               r2 := Chan.recv_timeout c 10.0));
        ignore
          (Sched.spawn s ~name:"late-sender" (fun () ->
               Sched.sleep 5.0;
               Chan.send c 42)))
  in
  Alcotest.(check (option int)) "timed out" None !r1;
  Alcotest.(check (option int)) "delivered" (Some 42) !r2

let test_timed_out_waiter_does_not_eat_message () =
  (* A waiter that timed out must not consume a later send: the value must
     go to the next waiter instead. *)
  let impatient = ref (Some 0) and patient = ref None in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        ignore
          (Sched.spawn s ~name:"impatient" (fun () ->
               impatient := Chan.recv_timeout c 1.0));
        ignore
          (Sched.spawn s ~name:"patient" (fun () ->
               Sched.sleep 0.5;
               patient := Chan.recv_timeout c 10.0));
        ignore
          (Sched.spawn s ~name:"sender" (fun () ->
               Sched.sleep 2.0;
               Chan.send c 7)))
  in
  Alcotest.(check (option int)) "impatient timed out" None !impatient;
  Alcotest.(check (option int)) "patient got it" (Some 7) !patient

let test_kill_group () =
  let survivor = ref false and victim = ref false in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~group:"nodeA" ~name:"victim" (fun () ->
               Sched.sleep 10.0;
               victim := true));
        ignore
          (Sched.spawn s ~group:"nodeB" ~name:"survivor" (fun () ->
               Sched.sleep 10.0;
               survivor := true));
        Sched.at s 5.0 (fun () -> Sched.kill_group s "nodeA"))
  in
  Alcotest.(check bool) "victim never resumed" false !victim;
  Alcotest.(check bool) "survivor resumed" true !survivor

let test_kill_before_first_run () =
  let ran = ref false in
  let _ =
    run_sim (fun s ->
        let f = Sched.spawn s ~name:"doomed" (fun () -> ran := true) in
        Sched.kill s f)
  in
  Alcotest.(check bool) "never started" false !ran

let test_fork_inherits_group () =
  let child_group = ref None in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~group:"g1" ~name:"parent" (fun () ->
               let child = Sched.fork ~name:"child" (fun () -> ()) in
               child_group := Sched.fiber_group child)))
  in
  Alcotest.(check (option string)) "inherited" (Some "g1") !child_group

let test_ivar () =
  let a = ref 0 and b = ref 0 and late = ref None in
  let _ =
    run_sim (fun s ->
        let iv = Ivar.create () in
        ignore (Sched.spawn s ~name:"r1" (fun () -> a := Ivar.read iv));
        ignore (Sched.spawn s ~name:"r2" (fun () -> b := Ivar.read iv));
        ignore
          (Sched.spawn s ~name:"filler" (fun () ->
               Sched.sleep 1.0;
               Ivar.fill iv 5;
               Ivar.fill iv 6 (* ignored *)));
        ignore
          (Sched.spawn s ~name:"late" (fun () ->
               Sched.sleep 2.0;
               late := Ivar.read_timeout iv 1.0)))
  in
  Alcotest.(check int) "reader 1" 5 !a;
  Alcotest.(check int) "reader 2" 5 !b;
  Alcotest.(check (option int)) "late reader sees value" (Some 5) !late

let test_ivar_timeout () =
  let r = ref (Some 1) in
  let _ =
    run_sim (fun s ->
        let iv = Ivar.create () in
        ignore
          (Sched.spawn s ~name:"reader" (fun () ->
               r := Ivar.read_timeout iv 3.0)))
  in
  Alcotest.(check (option int)) "timed out" None !r

let test_cond_signal_broadcast () =
  let woken = ref 0 in
  let _ =
    run_sim (fun s ->
        let c = Cond.create () in
        for i = 1 to 3 do
          ignore
            (Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
                 Cond.wait c;
                 incr woken))
        done;
        ignore
          (Sched.spawn s ~name:"sig" (fun () ->
               Sched.sleep 1.0;
               Cond.signal c;
               Sched.sleep 1.0;
               Cond.broadcast c)))
  in
  Alcotest.(check int) "all woken" 3 !woken

let test_cond_wait_timeout () =
  let r = ref true in
  let _ =
    run_sim (fun s ->
        let c = Cond.create () in
        ignore
          (Sched.spawn s ~name:"w" (fun () -> r := Cond.wait_timeout c 2.0)))
  in
  Alcotest.(check bool) "timed out" false !r

let test_signal_skips_dead_waiter () =
  let ok = ref false in
  let _ =
    run_sim (fun s ->
        let c = Cond.create () in
        ignore
          (Sched.spawn s ~group:"dead" ~name:"w1" (fun () -> Cond.wait c));
        ignore
          (Sched.spawn s ~name:"w2" (fun () ->
               Cond.wait c;
               ok := true));
        Sched.at s 1.0 (fun () -> Sched.kill_group s "dead");
        Sched.at s 2.0 (fun () ->
            ignore (Sched.spawn s ~name:"sig" (fun () -> Cond.signal c))))
  in
  Alcotest.(check bool) "live waiter woken" true !ok

let test_failures_recorded () =
  let s = Sched.create () in
  ignore (Sched.spawn s ~name:"boom" (fun () -> failwith "bang"));
  Sched.run s;
  match Sched.failures s with
  | [ ("boom", Failure msg) ] when msg = "bang" -> ()
  | _ -> Alcotest.fail "expected one recorded failure"

let test_live_fibers_reports_blocked () =
  let s = Sched.create () in
  let c : int Chan.t = Chan.create () in
  ignore (Sched.spawn s ~name:"stuck" (fun () -> ignore (Chan.recv c)));
  Sched.run s;
  Alcotest.(check (list string)) "stuck fiber listed" [ "stuck" ]
    (Sched.live_fibers s)

let test_many_fibers () =
  let n = 2000 in
  let total = ref 0 in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        for i = 1 to n do
          ignore
            (Sched.spawn s ~name:(Printf.sprintf "p%d" i) (fun () ->
                 Sched.sleep (float_of_int (i mod 17));
                 Chan.send c i))
        done;
        ignore
          (Sched.spawn s ~name:"sum" (fun () ->
               for _ = 1 to n do
                 total := !total + Chan.recv c
               done)))
  in
  Alcotest.(check int) "all delivered" (n * (n + 1) / 2) !total

(* The scheduler forgets a fiber once it finishes, dies or is killed: a
   long run that spawns a fiber per RPC must not keep every one it ever
   had. 100k fibers, in waves of 100, half finishing and half killed with
   their group while blocked, leave the scheduler's live heap as it was. *)
let test_fiber_table_bounded () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let s = Sched.create ~trace_limit:0 () in
  let before = live_words () in
  ignore
    (Sched.spawn s ~name:"spawner" (fun () ->
         for _ = 1 to 1000 do
           for i = 1 to 100 do
             let group = if i mod 2 = 0 then "doomed" else "done" in
             ignore
               (Sched.spawn s ~group ~name:"f" (fun () ->
                    if group = "doomed" then Sched.suspend (fun _ _ -> ())))
           done;
           Sched.yield ();
           Sched.kill_group s "doomed"
         done;
         ignore (Sched.fork ~name:"last" (fun () -> Sched.sleep 1.0))));
  Sched.run s;
  let after = live_words () in
  Alcotest.(check (list string)) "nothing left alive" [] (Sched.live_fibers s);
  Alcotest.(check bool)
    (Printf.sprintf "heap grew %d words over 100k fibers" (after - before))
    true
    (after - before < 20_000)

let test_live_fibers_in_spawn_order () =
  let s = Sched.create () in
  let c : int Chan.t = Chan.create () in
  List.iter
    (fun (name, group) ->
      ignore (Sched.spawn s ~group ~name (fun () -> ignore (Chan.recv c))))
    [ ("a", "x"); ("b", "y"); ("c", "x"); ("d", "y"); ("e", "x") ];
  ignore (Sched.spawn s ~name:"quick" (fun () -> ()));
  Sched.run s;
  Sched.kill_group s "y";
  Alcotest.(check (list string)) "spawn order, killed and finished gone"
    [ "a"; "c"; "e" ] (Sched.live_fibers s)

let suite =
  [
    Alcotest.test_case "sleep ordering" `Quick test_sleep_order;
    Alcotest.test_case "virtual time" `Quick test_virtual_time;
    Alcotest.test_case "chan fifo" `Quick test_chan_fifo;
    Alcotest.test_case "chan timeout" `Quick test_chan_timeout;
    Alcotest.test_case "timed-out waiter yields message" `Quick
      test_timed_out_waiter_does_not_eat_message;
    Alcotest.test_case "kill group" `Quick test_kill_group;
    Alcotest.test_case "kill before first run" `Quick test_kill_before_first_run;
    Alcotest.test_case "fork inherits group" `Quick test_fork_inherits_group;
    Alcotest.test_case "ivar" `Quick test_ivar;
    Alcotest.test_case "ivar timeout" `Quick test_ivar_timeout;
    Alcotest.test_case "cond signal/broadcast" `Quick test_cond_signal_broadcast;
    Alcotest.test_case "cond wait timeout" `Quick test_cond_wait_timeout;
    Alcotest.test_case "signal skips dead waiter" `Quick
      test_signal_skips_dead_waiter;
    Alcotest.test_case "fiber failures recorded" `Quick test_failures_recorded;
    Alcotest.test_case "live fibers reports blocked" `Quick
      test_live_fibers_reports_blocked;
    Alcotest.test_case "many fibers" `Quick test_many_fibers;
    Alcotest.test_case "fiber table bounded by the live set" `Quick
      test_fiber_table_bounded;
    Alcotest.test_case "live fibers in spawn order" `Quick
      test_live_fibers_in_spawn_order;
  ]

let () = Alcotest.run "rrq-sim" [ ("sched", suite) ]
