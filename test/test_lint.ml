(* rrq_lint: every rule must demonstrably fire on bad input and stay silent
   on good input, the baseline must suppress and go stale correctly, and
   the Swallow/Crash machinery the rules push code toward must behave. The
   lint's cleanliness on the real lib/ tree is asserted by the root dune
   rule (part of `dune runtest`), not here — fixtures keep this suite
   hermetic. *)

module Driver = Rrq_lint.Driver
module Rules = Rrq_lint.Rules
module Finding = Rrq_lint.Finding
module Callgraph = Rrq_lint.Callgraph
module Swallow = Rrq_util.Swallow
module Sched = Rrq_sim.Sched
module Crashpoint = Rrq_sim.Crashpoint

let lint ?(file = "lib/example/fixture.ml") src = Driver.lint_source ~file src

let rules_of fs = List.map (fun f -> f.Finding.rule) fs

let fires rule ?file src () =
  let fs = lint ?file src in
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on: %s" rule src)
    true
    (List.mem rule (rules_of fs))

let silent rule ?file src () =
  let fs = lint ?file src in
  Alcotest.(check (list string))
    (Printf.sprintf "%s silent on: %s" rule src)
    []
    (List.filter (fun r -> r = rule) (rules_of fs))

(* Multi-file variants, for the cross-module flow rules. *)
let fires_multi rule sources () =
  let fs = Driver.lint_sources sources in
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on multi-file fixture" rule)
    true
    (List.mem rule (rules_of fs))

let silent_multi rule sources () =
  let fs = Driver.lint_sources sources in
  Alcotest.(check (list string))
    (Printf.sprintf "%s silent on multi-file fixture" rule)
    []
    (List.filter (fun r -> r = rule) (rules_of fs))

(* Call graph over in-memory fixtures. *)
let graph_of sources =
  Callgraph.build
    (List.map
       (fun (file, src) ->
         match Driver.parse_impl ~file src with
         | Ok str -> (file, str)
         | Error f -> Alcotest.failf "fixture does not parse: %s" f.Finding.message)
       sources)

(* ---- R1: exception swallowing ----------------------------------------- *)

let r1_cases =
  [
    ("fires: try with _", fires "R1" "let f g = try g () with _ -> 0");
    ("fires: try with e unused", fires "R1" "let f g = try g () with e -> ignore e; 0");
    ( "fires: catch-all among specific handlers",
      fires "R1" "let f g = try g () with Not_found -> 1 | _ -> 0" );
    ( "fires: match exception wildcard",
      fires "R1" "let f g = match g () with x -> x | exception _ -> 0" );
    ("silent: specific exception", silent "R1" "let f g = try g () with Not_found -> 0");
    ( "silent: nonfatal guard",
      silent "R1" "let f g = try g () with e when Swallow.nonfatal e -> 0" );
    ( "silent: handler re-raises",
      silent "R1" "let f g h = try g () with e -> h (); raise e" );
    ( "silent: match exception specific",
      silent "R1" "let f g = match g () with x -> x | exception Exit -> 0" );
  ]

(* ---- R2: determinism --------------------------------------------------- *)

let r2_cases =
  [
    ("fires: Sys.time", fires "R2" "let t () = Sys.time ()");
    ("fires: Unix.gettimeofday", fires "R2" "let t () = Unix.gettimeofday ()");
    ("fires: Random.self_init", fires "R2" "let r () = Random.self_init ()");
    ("fires: Random.int", fires "R2" "let r n = Random.int n");
    ("fires: Sys.getenv", fires "R2" "let e () = Sys.getenv \"HOME\"");
    ("silent: Sched.clock", silent "R2" "let t () = Sched.clock ()");
    ("silent: Rng.int", silent "R2" "let r g n = Rng.int g n");
    ("silent: Sys.readdir", silent "R2" "let l d = Sys.readdir d");
  ]

(* ---- R3: layering ------------------------------------------------------ *)

let r3_cases =
  [
    ( "fires: Disk.append outside storage/wal",
      fires "R3" ~file:"lib/core/fixture.ml" "let f d = Disk.append d \"x\"" );
    ( "fires: Disk.replace_atomic in qm",
      fires "R3" ~file:"lib/qm/fixture.ml"
        "let f d = Disk.replace_atomic d \"ckpt\" \"bytes\"" );
    ( "fires: Wal.append in core",
      fires "R3" ~file:"lib/core/fixture.ml" "let f w = Wal.append w \"rec\"" );
    ( "fires: Group_commit.force in harness",
      fires "R3" ~file:"lib/harness/fixture.ml" "let f gc = Group_commit.force gc" );
    ( "fires: Element field write outside qm",
      fires "R3" ~file:"lib/core/fixture.ml"
        "let f el id = el.Element.status <- Element.Deq_pending id" );
    ( "fires: bare Element-only field write outside qm",
      fires "R3" ~file:"lib/core/fixture.ml"
        "let f el = el.delivery_count <- el.delivery_count + 1" );
    ( "fires: redo-record emission outside wal/rm",
      fires "R3" ~file:"lib/core/fixture.ml"
        "let f el = log_raw (REnq (\"q\", el))" );
    ( "fires: qualified redo emission outside wal/rm",
      fires "R3" ~file:"lib/harness/fixture.ml"
        "let f eid = log_raw (Qm.RDeq eid)" );
    ( "silent: Disk.append inside wal",
      silent "R3" ~file:"lib/wal/fixture.ml" "let f d = Disk.append d \"x\"" );
    ( "silent: Wal.append inside txn",
      silent "R3" ~file:"lib/txn/fixture.ml" "let f w = Wal.append w \"rec\"" );
    ( "silent: Disk.crash anywhere (fault injection is not mutation)",
      silent "R3" ~file:"lib/check/fixture.ml" "let f d = Disk.crash d" );
    ( "silent: Element field write inside qm",
      silent "R3" ~file:"lib/qm/fixture.ml"
        "let f el id = el.Element.status <- Element.Deq_pending id" );
    ( "silent: bare Element-only field write inside qm",
      silent "R3" ~file:"lib/qm/fixture.ml"
        "let f el = el.delivery_count <- el.delivery_count + 1" );
    ( "silent: redo emission inside qm",
      silent "R3" ~file:"lib/qm/fixture.ml"
        "let f el = log_raw (REnq (\"q\", el))" );
    ( "silent: unrelated constructor outside rm dirs",
      silent "R3" ~file:"lib/core/fixture.ml" "let f x = Result (x, 0)" );
    ( "fires: Ha.attach in harness",
      fires "R3" ~file:"lib/harness/fixture.ml"
        "let f site = Ha.attach site ~peer:\"b\" ~role:Ha.Primary" );
    ( "silent: Ha.attach in the world builder",
      silent "R3" ~file:"lib/check/world.ml"
        "let f site = Ha.attach site ~peer:\"b\" ~role:Ha.Primary" );
    ( "fires: Disk.replace_atomic of a layout in qm",
      fires "R3" ~file:"lib/qm/fixture.ml"
        "let f d b l = Disk.replace_atomic d \"ckpt\" b ~spliced:l ~len:2" );
    ( "silent: Disk.replace_atomic of a layout in the wal",
      silent "R3" ~file:"lib/wal/fixture.ml"
        "let f d b l = Disk.replace_atomic d \"ckpt\" b ~spliced:l ~len:2" );
    ( "fires: Wal.append_enc in core",
      fires "R3" ~file:"lib/core/fixture.ml" "let f w e = Wal.append_enc w e" );
  ]

(* ---- R4: transaction pairing ------------------------------------------- *)

let with_txn_fixture =
  "let with_txn tm f =\n\
  \  let txn = Tm.begin_txn tm in\n\
  \  match f txn with\n\
  \  | v -> ignore (Tm.commit tm txn); v\n\
  \  | exception e -> Tm.abort tm txn; raise e"

let r4_cases =
  [
    ( "fires: begin without commit/abort",
      fires "R4" "let f tm = let txn = Tm.begin_txn tm in ignore txn" );
    ( "fires: begin with commit but no abort path",
      fires "R4"
        "let f tm = let txn = Tm.begin_txn tm in ignore (Tm.commit tm txn)" );
    ("silent: the with_txn shape", silent "R4" with_txn_fixture);
    ( "silent: no begin at all",
      silent "R4" "let f tm txn = ignore (Tm.commit tm txn)" );
  ]

(* ---- R5: blocking under lock ------------------------------------------- *)

let r5_cases =
  [
    ( "fires: Cond.wait after acquire",
      fires "R5" "let f l id c = Lock.acquire l id ~key:\"k\" X; Cond.wait c" );
    ( "fires: Sched.sleep after try_acquire",
      fires "R5"
        "let f l id = ignore (Lock.try_acquire l id ~key:\"k\" X); Sched.sleep 1.0"
    );
    ( "fires: Ivar.read in nested closure after acquire",
      fires "R5"
        "let f l id iv = Lock.acquire l id ~key:\"k\" X;\n\
        \  let g () = Ivar.read iv in g ()" );
    ( "silent: blocking before acquire",
      silent "R5" "let f l id c = Cond.wait c; Lock.acquire l id ~key:\"k\" X" );
    ( "silent: released before blocking",
      silent "R5"
        "let f l id c = Lock.acquire l id ~key:\"k\" X; Lock.release_all l id;\n\
        \  Cond.wait c" );
    ( "silent: blocking in a different item",
      silent "R5"
        "let f l id = Lock.acquire l id ~key:\"k\" X\nlet g c = Cond.wait c" );
    (* Flow-sensitivity: what matters is where the helper is CALLED, not
       where it is defined — the false negative the per-item pass had. *)
    ( "fires: helper defined before the acquire, called after it",
      fires "R5"
        "let f l id c =\n\
        \  let g () = Cond.wait c in\n\
        \  Lock.acquire l id ~key:\"k\" X;\n\
        \  g ()" );
    ( "silent: helper defined under the lock, called after release",
      silent "R5"
        "let f l id c =\n\
        \  Lock.acquire l id ~key:\"k\" X;\n\
        \  let g () = Cond.wait c in\n\
        \  Lock.release_all l id;\n\
        \  g ()" );
    ( "silent: helper called before the acquire",
      silent "R5"
        "let f l id c =\n\
        \  let g () = Cond.wait c in\n\
        \  g ();\n\
        \  Lock.acquire l id ~key:\"k\" X" );
    (* R5 expands local helpers but deliberately stops at top-level
       callees: charging every transitive caller of a may-block function
       (e.g. strict-FIFO [Qm.dequeue]) would restate the R7 summaries as
       noise. Cross-item hold-and-wait is R7's domain. *)
    ( "silent: blocking inside another top-level item called under lock",
      silent "R5"
        "let wait c = Cond.wait c\n\
         let f l id c = Lock.acquire l id ~key:\"k\" X; wait c" );
    ( "silent: blocking lambda stored in a record under lock",
      silent "R5"
        "let f l id c =\n\
        \  Lock.acquire l id ~key:\"k\" X;\n\
        \  { handler = (fun () -> Cond.wait c) }" );
    ( "fires: Net.call under lock",
      fires "R5"
        "let f l id nd = Lock.acquire l id ~key:\"k\" X;\n\
        \  ignore (Net.call nd ~dst:\"a\" ~service:\"s\" ())" );
  ]

(* ---- call graph --------------------------------------------------------- *)

let callees_of g label =
  match Callgraph.find g label with
  | None -> Alcotest.failf "node %s not found" label
  | Some id ->
    List.sort String.compare
      (List.map (Callgraph.label g) (Callgraph.callees g id))

let cg_nested_modules () =
  let g =
    graph_of
      [ ( "lib/a/kv.ml",
          "module State = struct let relock x = x end\n\
           let f y = State.relock y" ) ]
  in
  Alcotest.(check (list string)) "nested module edge" [ "Kv.State.relock" ]
    (callees_of g "Kv.f")

let cg_functor () =
  let g =
    graph_of
      [ ("lib/a/rm.ml", "module Make (X : S) = struct let commit () = () end");
        ( "lib/b/use.ml",
          "module Base = Rm.Make (Arg)\nlet f () = Base.commit ()" );
      ]
  in
  Alcotest.(check (list string)) "functor application resolves"
    [ "Rm.Make.commit" ] (callees_of g "Use.f")

let cg_shadowed_names () =
  (* Equally named modules in different files: edges to every candidate —
     the deliberate over-approximation. *)
  let g =
    graph_of
      [ ("lib/a/store.ml", "let write () = ()");
        ("lib/b/store.ml", "let write () = ()");
        ("lib/c/use.ml", "let f () = Store.write ()");
      ]
  in
  Alcotest.(check (list string)) "both candidates"
    [ "Store.write"; "Store.write" ] (callees_of g "Use.f")

let cg_first_class_module () =
  let g =
    graph_of
      [ ( "lib/a/use.ml",
          "let helper () = ()\n\
           let f () = (module struct let x = helper end : S)" ) ]
  in
  (* The payload is a definition, not an execution: no edge. *)
  Alcotest.(check (list string)) "no edge from module payload" []
    (callees_of g "Use.f")

let cg_mutual_recursion () =
  let g =
    graph_of
      [ ( "lib/a/p.ml",
          "let rec even n = if n = 0 then true else odd (n - 1)\n\
           and odd n = if n = 0 then false else even (n - 1)" ) ]
  in
  Alcotest.(check (list string)) "even -> odd" [ "P.odd" ]
    (callees_of g "P.even");
  Alcotest.(check (list string)) "odd -> even" [ "P.even" ]
    (callees_of g "P.odd")

let cg_alias_resolution () =
  let g =
    graph_of
      [ ("lib/txn/lock.ml", "let acquire l = l");
        ( "lib/b/use.ml",
          "module Lock = Rrq_txn.Lock\nlet f l = Lock.acquire l" );
      ]
  in
  Alcotest.(check (list string)) "alias + library wrapping"
    [ "Lock.acquire" ] (callees_of g "Use.f")

let cg_under_application_is_edge () =
  (* A partial application is still a graph edge (the closure escapes),
     even though the flow rules refuse to charge its effects there. *)
  let g =
    graph_of
      [ ( "lib/a/m.ml",
          "let handler site txn env = ()\n\
           let f start = start (handler 1)" ) ]
  in
  Alcotest.(check (list string)) "edge kept" [ "M.handler" ]
    (callees_of g "M.f")

(* ---- R7: lock order ----------------------------------------------------- *)

(* Two lock-manager instances (classes from the directory basename: aa,
   bb), each acquired through its own file. *)
let r7_cross aa_body bb_body =
  [ ("lib/aa/ma.ml", aa_body); ("lib/bb/mb.ml", bb_body) ]

let r7_cycle_fixture =
  r7_cross
    "let take l id = Lock.acquire l id ~key:\"k\" X\n\
     let cross l id = take l id; Mb.take l id"
    "let take l id = Lock.acquire l id ~key:\"k\" X\n\
     let cross l id = take l id; Ma.take l id"

let r7_consistent_fixture =
  (* Both files acquire in the same global order: aa before bb. *)
  r7_cross
    "let take l id = Lock.acquire l id ~key:\"k\" X\n\
     let cross l id = take l id; Mb.take l id"
    "let take l id = Lock.acquire l id ~key:\"k\" X\n\
     let cross l id = Ma.take l id; take l id"

let r7_release_between_fixture =
  r7_cross
    "let take l id = Lock.acquire l id ~key:\"k\" X\n\
     let cross l id = take l id; Lock.release_all l id; Mb.take l id"
    "let take l id = Lock.acquire l id ~key:\"k\" X\n\
     let cross l id = take l id; Lock.release_all l id; Ma.take l id"

let r7_edges_of sources =
  let g = graph_of sources in
  List.map (fun e -> (e.Rules.e_from, e.Rules.e_to)) (Rules.lock_order_edges g)

let r7_edge_set () =
  let edges = r7_edges_of r7_cycle_fixture in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %s -> %s present" (fst e) (snd e))
        true (List.mem e edges))
    [ ("aa", "bb"); ("bb", "aa"); ("aa", "aa"); ("bb", "bb") ]

let r7_cases =
  [
    ("fires: opposite acquisition orders", fires_multi "R7" r7_cycle_fixture);
    ( "silent: one global acquisition order",
      silent_multi "R7" r7_consistent_fixture );
    ( "silent: release between the two managers",
      silent_multi "R7" r7_release_between_fixture );
    ("edge set has both cross edges and self edges", r7_edge_set);
  ]

(* ---- R8: durability before reply --------------------------------------- *)

let r8_cases =
  [
    ( "fires: reply released under an unforced append",
      fires "R8" "let f w iv = Wal.append w \"r\"; Ivar.fill iv 0" );
    ( "silent: sync before the reply",
      silent "R8" "let f w iv = Wal.append w \"r\"; Wal.sync w; Ivar.fill iv 0"
    );
    ( "fires: wakeup pending at exit with no force",
      fires "R8" "let f w c = Wal.append w \"r\"; Cond.signal c" );
    ( "silent: wakeup pending, force before exit",
      silent "R8"
        "let f w c = Wal.append w \"r\"; Cond.signal c; Wal.sync w" );
    ( "fires: taint introduced by a callee",
      fires "R8"
        "let stage w = Wal.append w \"r\"\n\
         let f w iv = stage w; Ivar.fill iv 0" );
    ( "silent: callee forces before returning",
      silent "R8"
        "let stage w = Wal.append w \"r\"; Wal.sync w\n\
         let f w iv = stage w; Ivar.fill iv 0" );
    ( "silent: no durability traffic at all",
      silent "R8" "let f iv = Ivar.fill iv 0" );
    ( "fires: group-commit append without force before net send",
      fires "R8"
        "let f gc nd = ignore (Group_commit.append gc \"r\");\n\
        \  ignore (Net.call nd ~dst:\"a\" ~service:\"s\" ())" );
    ( "silent: a lazy commit releases its own reply",
      silent "R8" "let f log id iv = Rm.commit_lazy log id; Ivar.fill iv 0" );
    ( "silent: the fenced lazy reply",
      silent "R8"
        "let f log id iv1 iv2 = Rm.commit_lazy log id; Ivar.fill iv1 0;\n\
        \  Node_log.force_upto log 0; Ivar.fill iv2 1" );
    ( "fires: the unfenced lazy reply (the designed bug)",
      fires "R8"
        "let f log id iv1 iv2 = Rm.commit_lazy log id; Ivar.fill iv1 0;\n\
        \  Ivar.fill iv2 1" );
    ( "silent: append_force before net send",
      silent "R8"
        "let f gc nd = ignore (Group_commit.append_force gc \"r\");\n\
        \  ignore (Net.call nd ~dst:\"a\" ~service:\"s\" ())" );
  ]

(* ---- R6: interface coverage -------------------------------------------- *)

let r6_fires () =
  let fs = Rules.interface_coverage ~files:[ "lib/a/x.ml"; "lib/a/y.ml"; "lib/a/y.mli" ] in
  Alcotest.(check (list string)) "only x.ml flagged" [ "lib/a/x.ml" ]
    (List.map (fun f -> f.Finding.file) fs)

let r6_silent () =
  let fs = Rules.interface_coverage ~files:[ "lib/a/x.ml"; "lib/a/x.mli" ] in
  Alcotest.(check int) "covered pair is clean" 0 (List.length fs)

(* ---- parse failures ----------------------------------------------------- *)

let parse_error_reported () =
  let fs = lint "let f = (" in
  Alcotest.(check (list string)) "P0 parse finding" [ "P0" ] (rules_of fs)

(* ---- baseline ----------------------------------------------------------- *)

let baseline_text =
  "# comment line\n\
   R5 lib/qm/qm.ml dequeue  # strict-FIFO hold-and-wait is the design\n"

let finding ~rule ~file ~item =
  {
    Finding.rule;
    rule_name = "x";
    severity = Finding.Error;
    file;
    line = 1;
    col = 0;
    item;
    message = "m";
    hint = "h";
    detail = [];
  }

let baseline_suppresses () =
  let entries = Driver.parse_baseline baseline_text in
  let f1 = finding ~rule:"R5" ~file:"lib/qm/qm.ml" ~item:"dequeue" in
  let f2 = finding ~rule:"R5" ~file:"lib/qm/qm.ml" ~item:"enqueue" in
  let kept, suppressed, stale = Driver.apply_baseline entries [ f1; f2 ] in
  Alcotest.(check int) "one kept" 1 (List.length kept);
  Alcotest.(check string) "the unmatched one" "enqueue"
    (List.hd kept).Finding.item;
  Alcotest.(check int) "one suppressed" 1 suppressed;
  Alcotest.(check int) "no stale" 0 (List.length stale)

let baseline_matches_all_same_item () =
  (* One entry covers every finding of the (rule, file, item) coordinate —
     e.g. both Cond.wait sites inside dequeue. *)
  let entries = Driver.parse_baseline baseline_text in
  let f1 = finding ~rule:"R5" ~file:"lib/qm/qm.ml" ~item:"dequeue" in
  let f2 = finding ~rule:"R5" ~file:"lib/qm/qm.ml" ~item:"dequeue" in
  let kept, suppressed, _ = Driver.apply_baseline entries [ f1; f2 ] in
  Alcotest.(check int) "none kept" 0 (List.length kept);
  Alcotest.(check int) "both suppressed" 2 suppressed

let baseline_goes_stale () =
  let entries = Driver.parse_baseline baseline_text in
  let kept, suppressed, stale = Driver.apply_baseline entries [] in
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check int) "nothing suppressed" 0 suppressed;
  Alcotest.(check int) "entry is stale" 1 (List.length stale)

let baseline_rejects_malformed () =
  Alcotest.check_raises "two-field line rejected"
    (Failure "baseline line 1: expected `RULE path item  # rationale'")
    (fun () -> ignore (Driver.parse_baseline "R5 lib/qm/qm.ml\n"))

(* ---- Swallow and Crash -------------------------------------------------- *)

let swallow_tolerates_nonfatal () =
  Alcotest.(check int) "default on Failure" 7
    (Swallow.run ~default:7 (fun () -> failwith "participant down"));
  Alcotest.(check bool) "Not_found nonfatal" true (Swallow.nonfatal Not_found)

let swallow_reraises_crash () =
  Alcotest.(check bool) "Crash is fatal" true (Swallow.fatal Crashpoint.Crash);
  Alcotest.check_raises "Crash escapes Swallow.run" Crashpoint.Crash (fun () ->
      Swallow.run ~default:() (fun () -> raise Crashpoint.Crash))

let swallow_reraises_assert () =
  Alcotest.(check bool) "assert false fatal" true
    (try
       ignore (Swallow.run ~default:0 (fun () -> assert false));
       false
     with Assert_failure _ -> true)

let crash_kills_fiber_silently () =
  let s = Sched.create () in
  let reached_end = ref false in
  ignore
    (Sched.spawn s ~name:"doomed" (fun () ->
         (Crashpoint.crash () : unit);
         reached_end := true));
  ignore (Sched.spawn s ~name:"bystander" (fun () -> Sched.sleep 1.0));
  Sched.run s;
  Alcotest.(check bool) "fiber unwound" false !reached_end;
  Alcotest.(check int) "no failure recorded" 0 (List.length (Sched.failures s))

let ordinary_exn_still_fails () =
  let s = Sched.create () in
  ignore (Sched.spawn s ~name:"bug" (fun () -> failwith "real bug"));
  Sched.run s;
  Alcotest.(check int) "failure recorded" 1 (List.length (Sched.failures s))

(* ---- rule tables name real functions --------------------------------------- *)

(* Every (module, function) pair R3 and R5 name is declared by a [val] in
   that module's interface under lib/: a name that no longer exists
   matches nothing, so its rule would silently check less. *)
let rec mli_files dir =
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then mli_files path
      else if Filename.check_suffix entry ".mli" then [ path ]
      else [])
    (Array.to_list (Sys.readdir dir))

let declares path f =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.exists (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: name :: _ -> name = f || name = f ^ ":"
         | _ -> false)

let rule_names_declared () =
  (* From the test's build directory under [dune runtest], else from the
     repository root. *)
  let mlis = mli_files (if Sys.file_exists "../lib" then "../lib" else "lib") in
  let missing =
    List.filter
      (fun (m, f) ->
        let file = String.uncapitalize_ascii m ^ ".mli" in
        not
          (List.exists
             (fun path -> Filename.basename path = file && declares path f)
             mlis))
      Rules.named
  in
  Alcotest.(check (list (pair string string))) "undeclared names" [] missing

(* ---- runner ------------------------------------------------------------- *)

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "rrq-lint"
    [
      ("r1", List.map (fun (n, f) -> quick n f) r1_cases);
      ("r2", List.map (fun (n, f) -> quick n f) r2_cases);
      ("r3", List.map (fun (n, f) -> quick n f) r3_cases);
      ("r4", List.map (fun (n, f) -> quick n f) r4_cases);
      ("r5", List.map (fun (n, f) -> quick n f) r5_cases);
      ( "callgraph",
        [
          quick "nested modules" cg_nested_modules;
          quick "functor application" cg_functor;
          quick "shadowed module names: every candidate" cg_shadowed_names;
          quick "first-class module payload: no edge" cg_first_class_module;
          quick "mutually recursive bindings" cg_mutual_recursion;
          quick "module alias + library wrapping" cg_alias_resolution;
          quick "under-application still an edge" cg_under_application_is_edge;
        ] );
      ("r7", List.map (fun (n, f) -> quick n f) r7_cases);
      ("r8", List.map (fun (n, f) -> quick n f) r8_cases);
      ( "r6",
        [ quick "fires: missing mli" r6_fires; quick "silent: covered" r6_silent ]
      );
      ("names", [ quick "R3 and R5 name declared functions" rule_names_declared ]);
      ("parse", [ quick "syntax error reported" parse_error_reported ]);
      ( "baseline",
        [
          quick "suppresses matching findings" baseline_suppresses;
          quick "one entry covers an item's findings" baseline_matches_all_same_item;
          quick "unmatched entry is stale" baseline_goes_stale;
          quick "malformed line rejected" baseline_rejects_malformed;
        ] );
      ( "swallow",
        [
          quick "tolerates nonfatal" swallow_tolerates_nonfatal;
          quick "re-raises Crash" swallow_reraises_crash;
          quick "re-raises Assert_failure" swallow_reraises_assert;
        ] );
      ( "crash",
        [
          quick "Crash kills the fiber silently" crash_kills_fiber_silently;
          quick "ordinary exception still recorded" ordinary_exn_still_fails;
        ] );
    ]
