(* Tests for the discrete-event scheduler, channels, ivars and conditions. *)

module Sched = Rrq_sim.Sched
module Chan = Rrq_sim.Chan
module Ivar = Rrq_sim.Ivar
module Cond = Rrq_sim.Cond
module Lock = Rrq_txn.Lock
module Txid = Rrq_txn.Txid

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

(* ---- cancellable timeouts ---------------------------------------------- *)

let tx n = Txid.make ~origin:"t" ~inc:1 ~n

(* [n] fibers each run [wait] (a 30 s timed wait, which must report success),
   [answer] wakes them all at 1 ms, and at 2 ms the heap must hold no
   timer: every timeout was cancelled by the wake that beat it, and the run
   ends there instead of at 30 s. *)
let check_answered name ~n ~wait ~answer =
  let pending = ref (-1) and ok = ref 0 in
  let s =
    run_sim (fun s ->
        for i = 1 to n do
          ignore
            (Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
                 if wait i then incr ok))
        done;
        ignore
          (Sched.spawn s ~name:"answer" (fun () ->
               Sched.sleep 0.001;
               answer ()));
        ignore
          (Sched.spawn s ~name:"check" (fun () ->
               Sched.sleep 0.002;
               pending := Sched.pending_timers s)))
  in
  Alcotest.(check int) (name ^ ": every wait answered") n !ok;
  Alcotest.(check int) (name ^ ": no timer left behind") 0 !pending;
  Alcotest.(check (float 1e-9)) (name ^ ": run ends with the work") 0.002 (Sched.now s)

let test_answered_timeouts_leave_no_timer () =
  let n = 1000 in
  let iv = Ivar.create () in
  check_answered "ivar" ~n
    ~wait:(fun _ -> Ivar.read_timeout iv 30.0 = Some 1)
    ~answer:(fun () -> Ivar.fill iv 1);
  let c = Cond.create () in
  check_answered "cond" ~n
    ~wait:(fun _ -> Cond.wait_timeout c 30.0)
    ~answer:(fun () ->
      for _ = 1 to n do
        Cond.signal c
      done);
  let c1 = Cond.create () and c2 = Cond.create () in
  check_answered "cond set" ~n
    ~wait:(fun _ -> Cond.wait_any ~timeout:30.0 [ c1; c2 ])
    ~answer:(fun () -> Cond.broadcast c2);
  let ch = Chan.create () in
  check_answered "chan" ~n
    ~wait:(fun i -> Chan.recv_timeout ch 30.0 = Some i)
    ~answer:(fun () ->
      for i = 1 to n do
        Chan.send ch i
      done);
  (* The holder takes every key first (fibers start in spawn order), so
     each waiter blocks on its own key until the holder releases them. *)
  let lm = Lock.create () and holder = tx 0 in
  for i = 1 to n do
    Lock.acquire lm holder ~key:(string_of_int i) Lock.X
  done;
  check_answered "lock" ~n
    ~wait:(fun i ->
      Lock.acquire ~timeout:30.0 lm (tx i) ~key:(string_of_int i) Lock.X;
      Lock.holds lm (tx i) ~key:(string_of_int i) Lock.X)
    ~answer:(fun () -> Lock.release_all lm holder)

(* A timeout that wins its race still fires at its deadline, returns the
   timeout value and is recorded as a [Timer_fired] decision. *)
let test_winning_timeouts_fire () =
  let got = ref [] in
  let note name v = got := (name, v, Sched.clock ()) :: !got in
  let s =
    run_sim (fun s ->
        let lm = Lock.create () in
        Lock.acquire lm (tx 0) ~key:"k" Lock.X;
        let timed name wait =
          ignore (Sched.spawn s ~name (fun () -> note name (wait ())))
        in
        timed "ivar" (fun () -> Ivar.read_timeout (Ivar.create ()) 1.0 = None);
        timed "cond" (fun () -> not (Cond.wait_timeout (Cond.create ()) 2.0));
        timed "cond set" (fun () ->
            not (Cond.wait_any ~timeout:3.0 [ Cond.create (); Cond.create () ]));
        timed "chan" (fun () -> Chan.recv_timeout (Chan.create ()) 4.0 = None);
        timed "lock" (fun () ->
            match Lock.acquire ~timeout:5.0 lm (tx 1) ~key:"k" Lock.X with
            | () -> false
            | exception Lock.Deadlock _ -> true))
  in
  Alcotest.(check (list (triple string bool (float 1e-9))))
    "each timed out at its deadline"
    [ ("ivar", true, 1.0); ("cond", true, 2.0); ("cond set", true, 3.0);
      ("chan", true, 4.0); ("lock", true, 5.0) ]
    (List.rev !got);
  let fired =
    Array.fold_left
      (fun k d -> match d with Sched.Timer_fired _ -> k + 1 | _ -> k)
      0 (Sched.trace s)
  in
  Alcotest.(check int) "five timer firings recorded" 5 fired;
  Alcotest.(check int) "heap empty" 0 (Sched.pending_timers s)

(* A cancelled foreground timeout does not keep the run going: with only it
   and a background daemon left, the run ends when the wait is answered. *)
let test_cancelled_timeout_ends_run () =
  let ticks = ref 0 in
  let s =
    run_sim (fun s ->
        let iv = Ivar.create () in
        ignore
          (Sched.spawn s ~name:"reader" (fun () -> ignore (Ivar.read_timeout iv 30.0)));
        ignore
          (Sched.spawn s ~name:"filler" (fun () ->
               Sched.sleep 0.001;
               Ivar.fill iv ()));
        ignore
          (Sched.spawn s ~name:"daemon" (fun () ->
               while true do
                 Sched.sleep_background 1.0;
                 incr ticks
               done)))
  in
  Alcotest.(check (float 1e-9)) "ends at the fill" 0.001 (Sched.now s);
  Alcotest.(check int) "daemon never ticked" 0 !ticks

(* A waiter whose timeout wins leaves the cond's or channel's queue then,
   not at the next signal or send: 1,000 timed-out polls of a cond, a cond
   set and a channel that nobody signals leave each as small as a fresh
   one. *)
let test_timed_out_waiters_leave_queue () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let c = Cond.create () and c1 = Cond.create () and c2 = Cond.create () in
  let ch : int Chan.t = Chan.create () in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~name:"poller" (fun () ->
               for _ = 1 to 1000 do
                 assert (not (Cond.wait_timeout c 0.001));
                 assert (not (Cond.wait_any ~timeout:0.001 [ c1; c2 ]));
                 assert (Chan.recv_timeout ch 0.001 = None)
               done)))
  in
  let fresh_cond = words (Cond.create ()) in
  Alcotest.(check int) "cond" fresh_cond (words c);
  Alcotest.(check int) "cond set, first" fresh_cond (words c1);
  Alcotest.(check int) "cond set, second" fresh_cond (words c2);
  Alcotest.(check int) "chan" (words (Chan.create () : int Chan.t)) (words ch);
  Alcotest.(check int) "no live waiter" 0 (Cond.waiters c)

(* A cond set's waker leaves every queue of the set once it is woken, not
   only the one whose signal woke it: 1,000 [wait_any [c1; c2]], untimed
   and then timed, each answered by [signal c1], leave c2 as small as a
   fresh cond. *)
let test_wait_any_leaves_every_queue () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let c1 = Cond.create () and c2 = Cond.create () in
  let n = 1000 in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               for _ = 1 to n do
                 assert (Cond.wait_any [ c1; c2 ])
               done;
               for _ = 1 to n do
                 assert (Cond.wait_any ~timeout:30.0 [ c1; c2 ])
               done));
        ignore
          (Sched.spawn s ~name:"signaller" (fun () ->
               for _ = 1 to 2 * n do
                 Sched.sleep 0.001;
                 Cond.signal c1
               done)))
  in
  let fresh_cond = words (Cond.create ()) in
  Alcotest.(check int) "signalled cond" fresh_cond (words c1);
  Alcotest.(check int) "other cond of the set" fresh_cond (words c2)

(* ---- decision trace encoding ------------------------------------------- *)

(* [program policy] builds and runs one deterministic world. Its trace must
   survive the string codec unchanged, and replaying it must re-record the
   same trace. Returns the first run's scheduler. *)
let check_trace_replays name program =
  let s = program None in
  let tr = Sched.trace s in
  Alcotest.(check bool) (name ^ ": string codec roundtrip") true
    (Sched.trace_of_string (Sched.trace_to_string tr) = tr);
  let s' = program (Some (Sched.Replay tr)) in
  Alcotest.(check string) (name ^ ": replay re-records the same trace")
    (Sched.trace_to_string tr) (Sched.trace_to_string (Sched.trace s'));
  s

(* [n] timers armed before the run, so their seqs are 1..n, whose times
   make them fire in the order 1, n, 2, n-1, ...: every seq delta but the
   first is negative on alternate firings and most are thousands wide.
   [lead] empty fibers run first (one pick each), shifting where each
   timer's code falls in the byte stream; [faults] are firing indices
   after which the callback notes a fault. *)
let zigzag_timers ?(lead = 0) ?(faults = []) ~n policy =
  let s = Sched.create ?policy () in
  for i = 1 to lead do
    ignore (Sched.spawn s ~name:(Printf.sprintf "lead%d" i) (fun () -> ()))
  done;
  let fired = ref 0 in
  for seq = 1 to n do
    let slot = if seq <= (n + 1) / 2 then 2 * (seq - 1) else (2 * (n - seq)) + 1 in
    Sched.at s (float_of_int slot) (fun () ->
        if List.mem !fired faults then Sched.note_fault s (Printf.sprintf "f%d" !fired);
        incr fired)
  done;
  Sched.run s;
  s

(* The trace [zigzag_timers] must record. *)
let zigzag_expected ?(lead = 0) ?(faults = []) ~n () =
  List.init lead (fun _ -> [ Sched.Pick 0 ])
  @ List.init n (fun k ->
        let seq = if k mod 2 = 0 then (k / 2) + 1 else n - (k / 2) in
        Sched.Timer_fired seq
        :: (if List.mem k faults then [ Sched.Fault (Printf.sprintf "f%d" k) ] else []))
  |> List.concat |> Array.of_list

let test_trace_negative_timer_deltas () =
  let s = check_trace_replays "zigzag timers" (zigzag_timers ~n:10_000) in
  Alcotest.(check string) "timers recorded in firing order"
    (Sched.trace_to_string (zigzag_expected ~n:10_000 ()))
    (Sched.trace_to_string (Sched.trace s))

(* 300 fibers ready at once under randomized priorities: many picks index
   past 128, so their codes take more than one byte. *)
let test_trace_wide_picks () =
  let program policy =
    let policy = Option.value policy ~default:(Sched.Random_priority 5) in
    let s = Sched.create ~policy () in
    for i = 1 to 300 do
      ignore
        (Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
             Sched.yield ();
             Sched.yield ()))
    done;
    Sched.run s;
    s
  in
  let s = check_trace_replays "300 ready fibers" program in
  let widest =
    Array.fold_left
      (fun m d -> match d with Sched.Pick i -> max m i | _ -> m)
      0 (Sched.trace s)
  in
  Alcotest.(check bool) (Printf.sprintf "picks reach past 128 (max %d)" widest) true
    (widest > 128)

(* 40,000 zigzag timers take over 100 KB of trace, most codes three bytes
   wide, so the trace crosses the scheduler's 64 KiB chunk boundary near
   firing 21,845; of the three lead-in offsets, two put a code across it.
   Faults are noted at the first and last firing and on both sides of the
   boundary. *)
let test_trace_crosses_chunks () =
  let faults = [ 0; 21_000; 21_845; 21_846; 22_500; 39_999 ] in
  for lead = 0 to 2 do
    let name = Printf.sprintf "lead %d" lead in
    let s = check_trace_replays name (zigzag_timers ~lead ~faults ~n:40_000) in
    Alcotest.(check bool) (name ^ ": not truncated") false (Sched.trace_truncated s);
    Alcotest.(check string) (name ^ ": decoded as recorded")
      (Sched.trace_to_string (zigzag_expected ~lead ~faults ~n:40_000 ()))
      (Sched.trace_to_string (Sched.trace s))
  done

(* [trace_limit] counts decisions: a run of exactly [n] decisions is
   truncated below [n] and whole at [n] and above, and fault notes are
   kept past the limit. *)
let test_trace_limit_edges () =
  let program ?trace_limit policy =
    let s = Sched.create ?policy ?trace_limit () in
    ignore
      (Sched.spawn s ~name:"y" (fun () ->
           for i = 1 to 9 do
             if i = 5 then Sched.note_fault s "mid";
             Sched.yield ()
           done;
           Sched.sleep 1.0));
    Sched.run s;
    s
  in
  let full = Sched.trace (program None) in
  let n = Array.length full - 1 in
  Alcotest.(check int) "decisions in the run" 21 n;
  List.iter
    (fun (limit, truncated, kept) ->
      let name = Printf.sprintf "limit %d" limit in
      let s = check_trace_replays name (program ~trace_limit:limit) in
      Alcotest.(check bool) (name ^ ": truncated") truncated (Sched.trace_truncated s);
      let tr = Sched.trace s in
      Alcotest.(check int) (name ^ ": decisions kept") kept
        (Array.length tr - 1);
      Alcotest.(check bool) (name ^ ": fault note kept") true
        (Array.mem (Sched.Fault "mid") tr))
    [ (0, true, 0); (n - 1, true, n - 1); (n, false, n); (n + 1, false, n) ]

(* The default-limit trace costs about a byte per FIFO decision: 400k
   decisions (a sleep and a yield per round in one fiber, two decisions
   each) must not grow the live heap by half a word each. *)
let test_trace_bytes_per_decision () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let s = Sched.create () in
  let before = live_words () in
  ignore
    (Sched.spawn s ~name:"looper" (fun () ->
         for _ = 1 to 100_000 do
           Sched.sleep 0.001;
           Sched.yield ()
         done));
  Sched.run s;
  let after = live_words () in
  Alcotest.(check bool) "trace whole" false (Sched.trace_truncated s);
  let decisions = Array.length (Sched.trace s) in
  Alcotest.(check bool) (Printf.sprintf "about 400k decisions (%d)" decisions) true
    (decisions >= 400_000);
  Alcotest.(check bool)
    (Printf.sprintf "heap grew %d words over %d decisions" (after - before) decisions)
    true
    (2 * (after - before) < decisions)

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
    Alcotest.test_case "trace: timers out of seq order" `Quick
      test_trace_negative_timer_deltas;
    Alcotest.test_case "trace: over 128 ready fibers" `Quick test_trace_wide_picks;
    Alcotest.test_case "trace: crosses chunk boundaries" `Quick
      test_trace_crosses_chunks;
    Alcotest.test_case "trace: limit at 0, n-1, n and n+1" `Quick
      test_trace_limit_edges;
    Alcotest.test_case "trace: under half a word per decision" `Quick
      test_trace_bytes_per_decision;
    Alcotest.test_case "answered timeouts leave no timer" `Quick
      test_answered_timeouts_leave_no_timer;
    Alcotest.test_case "winning timeouts fire" `Quick test_winning_timeouts_fire;
    Alcotest.test_case "cancelled timeout ends the run" `Quick
      test_cancelled_timeout_ends_run;
    Alcotest.test_case "timed-out waiters leave the queue" `Quick
      test_timed_out_waiters_leave_queue;
    Alcotest.test_case "cond set waker leaves every queue" `Quick
      test_wait_any_leaves_every_queue;
  ]

let () = Alcotest.run "rrq-sim" [ ("sched", suite) ]
