(* The rule set: a per-file Parsetree pass (compiler-libs [Ast_iterator])
   for the syntactic rules R1–R4, the file-level R6, and a flow-aware pass
   (R5, R7, R8) over the call graph built by [Callgraph].

   Rules work on the *untyped* AST: they see names, not resolved paths, so
   they match on the conventional module aliases used throughout the tree
   ([Disk], [Wal], [Lock], [Sched], ...). That makes them linters, not
   proofs — cheap, fast, zero-annotation — and the suppression baseline
   (see [Driver]) is the escape hatch for the rare intentional exception.

   Scoping: R4 reasons per top-level value binding ("item"), linearizing
   the body in source order. The flow rules reason over each item's event
   list (local helpers expanded at call position, lambdas inlined at their
   application site) plus interprocedural summaries computed over the call
   graph; branches are linearized in source order — an over-approximation
   in the conservative direction for every hazard these rules target. The
   exact approximations are documented per rule in doc/INTERNALS.md. *)

module F = Finding
module CG = Callgraph

let all =
  [
    ( "R1", "exn-swallow",
      "no catch-all exception handlers: `try ... with _ ->' (or `| \
       exception _ ->') can eat Crashpoint.Crash or a scheduler-fatal \
       exception; use Rrq_util.Swallow or a `when Swallow.nonfatal e' guard"
    );
    ( "R2", "determinism",
      "no ambient time, randomness or environment under lib/: Sys.time, \
       Unix.*, Random.*, Sys.getenv break byte-identical trace replay; \
       route time through Rrq_sim.Sched and randomness through Rrq_util.Rng"
    );
    ( "R3", "layering",
      "no direct Disk mutation outside lib/storage + lib/wal, no raw \
       WAL/group-commit appends or redo-record construction outside the \
       resource-manager layers (lib/wal, lib/txn, lib/qm, lib/kvdb), no \
       Element payload/state writes outside lib/qm, and no world wiring \
       (Site.create, Ha.attach, Shard.attach) outside lib/core and \
       lib/check/world.ml" );
    ( "R4", "txn-pairing",
      "an item that calls begin_txn must also reach both a commit and an \
       abort (the with_txn shape): a missing abort path leaks the \
       transaction and its locks when the body raises" );
    ( "R5", "blocking-under-lock",
      "no blocking primitive (Sched.yield/sleep, Cond.wait*, Chan.send/\
       recv, Ivar.read*, Net.call, Group_commit.force) after Lock.acquire \
       and before Lock.release_all in the same item, including through \
       local helper functions (expanded at their call position): \
       hold-and-wait invites deadlock and stretches lock hold times" );
    ( "R6", "interface-coverage",
      "every lib/**.ml has a sibling .mli: the public surface of each \
       module is explicit" );
    ( "R7", "lock-order",
      "the static lock-order graph (edges: lock-manager instance held \
       while acquiring from another) must be acyclic; a cycle is a \
       potential cross-manager deadlock the dynamic waits-for detector \
       cannot see, reported with the full witness path" );
    ( "R8", "durability-before-reply",
      "no reply/publish release (Ivar.fill, Chan.send, Net.call/cast; \
       Cond.signal/broadcast only if unforced at item exit) while a WAL \
       or group-commit append is not yet covered by a force: a waiter \
       woken past that window can act on — and answer for — state a \
       crash would revoke; a lazy commit (commit_lazy) may release its \
       own reply, and no other until a force fences it" );
  ]

(* ---- identifier helpers ---------------------------------------------- *)

let rec flatten lid =
  match lid with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (_, l) -> flatten l

let last_two comps =
  match List.rev comps with
  | f :: m :: _ -> (Some m, f)
  | [ f ] -> (None, f)
  | [] -> (None, "")

(* ---- per-file context ------------------------------------------------- *)

type ctx = {
  file : string;
  mutable item : string;
  mutable findings : F.t list;
  (* R4, per item *)
  mutable begin_sites : Location.t list;
  mutable saw_commit : bool;
  mutable saw_abort : bool;
}

let emit ctx ~rule ~rule_name ~loc ~message ~hint =
  let p = loc.Location.loc_start in
  ctx.findings <-
    {
      F.rule;
      rule_name;
      severity = F.Error;
      file = ctx.file;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      item = ctx.item;
      message;
      hint;
      detail = [];
    }
    :: ctx.findings

(* ---- R1: catch-all exception handlers --------------------------------- *)

let rec is_catchall p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> true
  | Parsetree.Ppat_alias (q, _) -> is_catchall q
  | Parsetree.Ppat_or (a, b) -> is_catchall a || is_catchall b
  | Parsetree.Ppat_constraint (q, _) -> is_catchall q
  | _ -> false

let bound_var p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var v -> Some v.Location.txt
  | Parsetree.Ppat_alias (_, v) -> Some v.Location.txt
  | _ -> None

(* A handler that re-raises the exception it bound ([... ; raise e]) keeps
   the fiber-fatal path open, so it is not a swallow. *)
let reraises var body =
  match var with
  | None -> false
  | Some v ->
    let found = ref false in
    let expr self e =
      (match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_apply
          ({ pexp_desc = Parsetree.Pexp_ident { txt = f; _ }; _ }, args) ->
        let _, fn = last_two (flatten f) in
        if fn = "raise" || fn = "raise_notrace" || fn = "reraise" then
          List.iter
            (fun (_, a) ->
              match a.Parsetree.pexp_desc with
              | Parsetree.Pexp_ident { txt = Longident.Lident x; _ }
                when x = v ->
                found := true
              | _ -> ())
            args
      | _ -> ());
      Ast_iterator.default_iterator.expr self e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.expr it body;
    !found

let r1_msg =
  "catch-all exception handler: can swallow Crashpoint.Crash or a \
   scheduler-fatal exception and turn an injected crash into a wrong \
   protocol outcome"

let r1_hint =
  "match the specific exceptions, guard with `when Rrq_util.Swallow.nonfatal \
   e', or use Rrq_util.Swallow.run ~default"

let check_handler ctx pat guard body =
  if is_catchall pat && guard = None && not (reraises (bound_var pat) body)
  then
    emit ctx ~rule:"R1" ~rule_name:"exn-swallow" ~loc:pat.Parsetree.ppat_loc
      ~message:r1_msg ~hint:r1_hint

let r1_case ctx (c : Parsetree.case) =
  check_handler ctx c.pc_lhs c.pc_guard c.pc_rhs

let r1_exception_case ctx (c : Parsetree.case) =
  match c.pc_lhs.Parsetree.ppat_desc with
  | Parsetree.Ppat_exception inner -> check_handler ctx inner c.pc_guard c.pc_rhs
  | _ -> ()

(* ---- R2: determinism -------------------------------------------------- *)

let r2_hint =
  "route time through Rrq_sim.Sched.clock (or an injected clock) and \
   randomness through Rrq_util.Rng; configuration comes in through \
   constructor arguments, not the environment"

let r2_check ctx loc comps =
  let has m = List.mem m comps in
  let m2, f = last_two comps in
  let bad what =
    emit ctx ~rule:"R2" ~rule_name:"determinism" ~loc
      ~message:(what ^ " breaks deterministic, replayable simulation")
      ~hint:r2_hint
  in
  if has "Unix" then bad "Unix.* (wall clock / ambient syscalls)"
  else if has "Random" then bad "stdlib Random (ambient randomness)"
  else if m2 = Some "Sys" && f = "time" then bad "Sys.time (host CPU clock)"
  else if m2 = Some "Sys" && (f = "getenv" || f = "getenv_opt") then
    bad "Sys.getenv (ambient environment)"

(* ---- R3: layering ----------------------------------------------------- *)

type layer = {
  l_mod : string;
  l_funcs : string list;
  l_allowed : string list;
  l_what : string;
  l_hint : string;
}

let rm_dirs = [ "lib/wal/"; "lib/txn/"; "lib/qm/"; "lib/kvdb/" ]

let layers =
  [
    {
      l_mod = "Disk";
      l_funcs =
        [
          "open_file"; "append"; "sync"; "sync_all"; "replace_atomic"; "delete";
        ];
      l_allowed = [ "lib/storage/"; "lib/wal/" ];
      l_what = "direct disk mutation";
      l_hint =
        "stable storage is written only through the WAL (lib/wal) so every \
         update is logged, checksummed and recoverable; call the Wal/Qm/Kvdb \
         layer instead";
    };
    {
      l_mod = "Wal";
      l_funcs =
        [ "append"; "append_enc"; "append_frame"; "append_sync"; "sync"; "checkpoint" ];
      l_allowed = rm_dirs;
      l_what = "raw WAL mutation";
      l_hint =
        "log records are owned by the resource managers (TM/RM/QM/KVDB \
         deferred-update path); higher layers express updates as \
         transactions";
    };
    {
      l_mod = "Group_commit";
      l_funcs = [ "append"; "append_frame"; "append_force"; "force" ];
      l_allowed = rm_dirs;
      l_what = "raw group-commit append/force";
      l_hint =
        "log records are owned by the resource managers (TM/RM/QM/KVDB \
         deferred-update path); higher layers express updates as \
         transactions";
    };
  ]

(* Worlds are wired in one place: everything above lib/core builds its
   sites, HA pairs and shard routers through [Rrq_check.World]. *)
let wiring (m, f) =
  {
    l_mod = m;
    l_funcs = [ f ];
    l_allowed = [ "lib/core/"; "lib/check/world.ml" ];
    l_what = "world wiring";
    l_hint =
      "describe the world (repositories, shard map, queues, server) as a \
       Rrq_check.World.t and boot it with World.build";
  }

let layers =
  layers @ List.map wiring [ ("Site", "create"); ("Ha", "attach"); ("Shard", "attach") ]

let under prefixes file = List.exists (fun p -> String.starts_with ~prefix:p file) prefixes

let r3_check_ident ctx loc comps =
  let m2, f = last_two comps in
  match m2 with
  | None -> ()
  | Some m ->
    List.iter
      (fun l ->
        if l.l_mod = m && List.mem f l.l_funcs && not (under l.l_allowed ctx.file)
        then
          emit ctx ~rule:"R3" ~rule_name:"layering" ~loc
            ~message:
              (Printf.sprintf "%s (%s.%s) outside %s" l.l_what m f
                 (String.concat ", " l.l_allowed))
            ~hint:l.l_hint)
      layers

(* Qm state is also mutated by writing [Element] record fields directly
   (status, delivery_count, stale_count, abort_code); outside lib/qm that
   bypasses the deferred-update path entirely. Matched both qualified
   ([el.Element.status <- ...]) and — for the field names unique to
   Element — bare ([el.delivery_count <- ...] under an open). *)
let element_only_fields = [ "delivery_count"; "stale_count"; "abort_code" ]

let r3_check_setfield ctx loc lid =
  let comps = flatten lid in
  let _, f = last_two comps in
  if
    (List.mem "Element" comps || List.mem f element_only_fields)
    && not (under [ "lib/qm/" ] ctx.file)
  then
    emit ctx ~rule:"R3" ~rule_name:"layering" ~loc
      ~message:"direct Element state mutation outside lib/qm"
      ~hint:
        "queue-element state changes only via the QM's transactional \
         operations (enqueue/dequeue/kill), which log them for recovery"

(* Redo records are the recovery contract: only the WAL and the
   resource-manager layers may fabricate them. A redo constructed anywhere
   else would describe an update no RM's apply/recovery path owns. *)
let redo_ctors =
  [
    "RCreate"; "REnq"; "RDeq"; "RKill"; "RBump"; "RMove_error"; "RRegister";
    "RDeregister"; "RSet_last"; "RIncarnation"; "RDestroy"; "RSet_stopped";
    "RAlter";
  ]

let r3_check_construct ctx loc lid =
  let _, c = last_two (flatten lid) in
  if List.mem c redo_ctors && not (under rm_dirs ctx.file) then
    emit ctx ~rule:"R3" ~rule_name:"layering" ~loc
      ~message:
        (Printf.sprintf "redo-record emission (%s) outside %s" c
           (String.concat ", " rm_dirs))
      ~hint:
        "redo records are owned by the WAL and resource-manager layers; \
         express the update as a transactional QM/KVDB operation instead \
         of logging it by hand"

(* ---- R4: txn pairing -------------------------------------------------- *)

let commit_names = [ "commit"; "auto_commit" ]
let abort_names = [ "abort"; "force_abort" ]

let r4_check_ident ctx loc comps =
  let _, f = last_two comps in
  if f = "begin_txn" then ctx.begin_sites <- loc :: ctx.begin_sites;
  if List.mem f commit_names then ctx.saw_commit <- true;
  if List.mem f abort_names then ctx.saw_abort <- true

let r4_finalize ctx =
  if ctx.begin_sites <> [] && not (ctx.saw_commit && ctx.saw_abort) then
    List.iter
      (fun loc ->
        emit ctx ~rule:"R4" ~rule_name:"txn-pairing" ~loc
          ~message:
            (Printf.sprintf
               "begin_txn without %s in the same item: the transaction (and \
                its locks) leaks on the missing path"
               (if ctx.saw_commit then "an abort path"
                else if ctx.saw_abort then "a commit path"
                else "commit/abort"))
          ~hint:
            "pair begin_txn with commit on the success path and abort on the \
             exception path (the Site.with_txn shape), or hand the open \
             handle to a helper that does")
      (List.rev ctx.begin_sites)

(* ---- the pass --------------------------------------------------------- *)

let check_ident ctx loc lid =
  let comps = flatten lid in
  r2_check ctx loc comps;
  r3_check_ident ctx loc comps;
  r4_check_ident ctx loc comps

let reset_item ctx name =
  ctx.item <- name;
  ctx.begin_sites <- [];
  ctx.saw_commit <- false;
  ctx.saw_abort <- false

let make_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } -> check_ident ctx e.Parsetree.pexp_loc txt
    | Parsetree.Pexp_try (_, cases) -> List.iter (r1_case ctx) cases
    | Parsetree.Pexp_match (_, cases) -> List.iter (r1_exception_case ctx) cases
    | Parsetree.Pexp_setfield (_, lid, _) ->
      r3_check_setfield ctx e.Parsetree.pexp_loc lid.Location.txt
    | Parsetree.Pexp_construct (lid, _) ->
      r3_check_construct ctx e.Parsetree.pexp_loc lid.Location.txt
    | _ -> ());
    super.expr self e
  in
  let structure_item self si =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let name =
            match bound_var vb.Parsetree.pvb_pat with
            | Some n -> n
            | None -> "_"
          in
          reset_item ctx name;
          self.Ast_iterator.expr self vb.Parsetree.pvb_expr;
          r4_finalize ctx;
          reset_item ctx "")
        vbs
    | _ -> super.structure_item self si
  in
  { super with expr; structure_item }

let check_structure ~file str =
  let ctx =
    {
      file;
      item = "";
      findings = [];
      begin_sites = [];
      saw_commit = false;
      saw_abort = false;
    }
  in
  let it = make_iterator ctx in
  it.Ast_iterator.structure it str;
  List.sort F.compare ctx.findings

(* ---- R6: interface coverage (file-level, no parsing needed) ------------ *)

let interface_coverage ~files =
  let set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace set f ()) files;
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".ml" && not (Hashtbl.mem set (f ^ "i")) then
        Some
          {
            F.rule = "R6";
            rule_name = "interface-coverage";
            severity = F.Error;
            file = f;
            line = 1;
            col = 0;
            item = "";
            message = "implementation without a sibling .mli interface";
            hint =
              "write the .mli: the module's public surface must be explicit \
               (abstract types, documented vals), everything else private";
            detail = [];
          }
      else None)
    (List.sort String.compare files)

(* ====== flow-aware rules (R5, R7, R8) over the call graph =============== *)

(* Iterate the [Call] events of an event list in execution order, expanding
   local helpers at their call position. A [Def] enters the helper map; a
   [Local] splices the helper's body in (cycle-guarded, since `let rec`
   helpers recurse — one expansion per helper per chain is enough for the
   may-style properties these rules check). Value references ([c_ref]) are
   not executions and are skipped — the referenced node is analyzed in its
   own right. *)
let iter_exec events f =
  let defs = Hashtbl.create 8 in
  let rec go expanding evs =
    List.iter
      (fun ev ->
        match ev with
        | CG.Def d -> Hashtbl.replace defs d.d_name d.d_body
        | CG.Local l -> (
          match Hashtbl.find_opt defs l.l_name with
          | Some body when not (List.mem l.l_name expanding) ->
            go (l.l_name :: expanding) body
          | _ -> ())
        | CG.Call c -> if not c.CG.c_ref then f c)
      evs
  in
  go [] events

let flow_finding ~rule ~rule_name ~file ~line ~item ~message ~hint ~detail =
  {
    F.rule;
    rule_name;
    severity = F.Error;
    file;
    line;
    col = 0;
    item;
    message;
    hint;
    detail;
  }

(* ---- R5: blocking under lock (flow-sensitive, local helpers expanded) -- *)

let blocking =
  [
    ("Sched", [ "yield"; "sleep"; "sleep_background"; "suspend" ]);
    ("Cond", [ "wait"; "wait_timeout"; "wait_any" ]);
    ("Chan", [ "send"; "recv"; "recv_timeout" ]);
    ("Ivar", [ "read"; "read_timeout" ]);
    ("Net", [ "call" ]);
    ("Group_commit", [ "force"; "append_force" ]);
  ]

let is_blocking m f =
  List.exists (fun (bm, fs) -> bm = m && List.mem f fs) blocking

let r5_node acc (n : CG.node) =
  let held = ref false in
  iter_exec n.CG.n_events (fun c ->
    match (c.CG.c_mod, c.CG.c_name) with
    | Some "Lock", ("acquire" | "try_acquire") -> held := true
    | Some "Lock", "release_all" -> held := false
    | Some m, f when !held && is_blocking m f ->
      acc :=
        flow_finding ~rule:"R5" ~rule_name:"blocking-under-lock"
          ~file:n.CG.n_file ~line:c.CG.c_line ~item:n.CG.n_name
          ~message:
            (Printf.sprintf
               "%s.%s while a Lock acquired earlier in this item may still \
                be held"
               m f)
          ~hint:
            "release (or do not yet acquire) the lock around the blocking \
             call; if the hold-and-wait is the design (e.g. strict-FIFO \
             dequeue), document it in the suppression baseline"
          ~detail:[]
        :: !acc
    | _ -> ())

(* ---- R7: lock order ---------------------------------------------------- *)

module SS = Set.Make (String)

let lock_prim c =
  match (c.CG.c_mod, c.CG.c_name) with
  | Some "Lock", ("acquire" | "try_acquire") -> `Acquire
  | Some "Lock", "release_all" -> `Release
  (* Transaction boundaries are release-all points by the system's own
     2PL contract. On exit, TM resolution releases every participant's
     locks through the [p_release] closures, which a static walk cannot
     see into; on entry, a fresh transaction holds nothing — whatever the
     walk accumulated before [begin_txn] (boot-time recovery relocks, a
     previous scenario's 2PL holds) belongs to other transactions, and
     lock order is a per-transaction property. *)
  | Some "Tm", ("begin_txn" | "commit" | "abort" | "force_abort") -> `Release
  | _ -> `No

(* Per-node lock summary, computed to fixpoint over the call graph:

   - [s_acq]: every instance a call into the node may acquire, transitively
     (releases ignored) — the edge targets a call site contributes.
   - [s_clears]: the linearized path through the node ends past a
     [release_all] (its own, or one every callee candidate performs) — so
     a caller's held set does not survive the call. This is what lets
     [Site.create]'s recovery — which relocks prepared keys and then
     releases them as the recovered transactions resolve — come out clean
     instead of poisoning every harness driver's held set forever.
   - [s_net]: instances acquired after the last clear, i.e. still held at
     exit (the strict-FIFO [dequeue] hands its lock to the caller's
     commit).

   Calls that are the [Lock] primitives themselves count as the caller's
   own instance and are never chased as edges — [lock.ml]'s internals are
   the mechanism, not a user of it. *)
type r7_sum = { s_acq : SS.t; s_clears : bool; s_net : SS.t }

let r7_walk cg get (node : CG.node) ~on_acquire ~on_call =
  let own = CG.instance cg node.CG.n_file in
  let acq = ref SS.empty in
  let cleared = ref false in
  let held = ref SS.empty in
  iter_exec node.CG.n_events (fun c ->
    match lock_prim c with
    | `Acquire ->
      on_acquire c !held own;
      acq := SS.add own !acq;
      held := SS.add own !held
    | `Release ->
      cleared := true;
      held := SS.empty
    | `No -> (
      match c.CG.c_tgts with
      | [] -> ()
      | tgts ->
        let subs = List.map get tgts in
        let sub_acq =
          List.fold_left (fun s x -> SS.union x.s_acq s) SS.empty subs
        in
        let sub_net =
          List.fold_left (fun s x -> SS.union x.s_net s) SS.empty subs
        in
        if not (SS.is_empty sub_acq) then on_call c !held sub_acq tgts;
        acq := SS.union sub_acq !acq;
        (* several candidates (shadowed module names): the callee clears
           only if every candidate clears — the conservative direction *)
        if List.for_all (fun x -> x.s_clears) subs then begin
          cleared := true;
          held := sub_net
        end
        else held := SS.union !held sub_net));
  { s_acq = !acq; s_clears = !cleared; s_net = !held }

let r7_summaries cg =
  let ids = List.init (CG.node_count cg) (fun i -> i) in
  let eq a b =
    SS.equal a.s_acq b.s_acq
    && a.s_clears = b.s_clears
    && SS.equal a.s_net b.s_net
  in
  let step get id =
    r7_walk cg get (CG.node cg id)
      ~on_acquire:(fun _ _ _ -> ())
      ~on_call:(fun _ _ _ _ -> ())
  in
  Flow.fixpoint ~nodes:ids ~eq ~step
    ~init:{ s_acq = SS.empty; s_clears = false; s_net = SS.empty }

type lock_edge = {
  e_from : string;
  e_to : string;
  e_file : string;
  e_line : int;
  e_item : string;
  e_via : string option;  (* callee label when acquired interprocedurally *)
}

(* Walk every node with a held-set of instance classes, recording a
   [held -> acquired] edge per acquisition (first witness site per edge
   kept). Every acquisition also records the self-edge [own -> own]: a
   loop re-acquiring within one manager (multi-key relock, strict-FIFO
   element locks) produces exactly that edge at runtime, and the static
   walk linearizes loop bodies once. Self-edges are excluded from the
   cycle check — intra-instance ordering is the dynamic waits-for
   detector's job — but they must be in the witness reference set. *)
let lock_order_edges_of cg summaries =
  let edges : (string * string, lock_edge) Hashtbl.t = Hashtbl.create 32 in
  let add e =
    if not (Hashtbl.mem edges (e.e_from, e.e_to)) then
      Hashtbl.replace edges (e.e_from, e.e_to) e
  in
  List.iter
    (fun (node : CG.node) ->
      let site line via from to_ =
        { e_from = from; e_to = to_; e_file = node.CG.n_file; e_line = line;
          e_item = node.CG.n_name; e_via = via }
      in
      ignore
        (r7_walk cg summaries node
           ~on_acquire:(fun c held own ->
             add (site c.CG.c_line None own own);
             SS.iter (fun h -> add (site c.CG.c_line None h own)) held)
           ~on_call:(fun c held acq tgts ->
             let via = Some (CG.label cg (List.hd tgts)) in
             SS.iter
               (fun h ->
                 SS.iter (fun a -> add (site c.CG.c_line via h a)) acq)
               held)))
    (CG.nodes cg);
  List.sort compare (Hashtbl.fold (fun _ e acc -> e :: acc) edges [])

let lock_order_edges cg = lock_order_edges_of cg (r7_summaries cg)

let edge_site e =
  Printf.sprintf "%s -> %s: %s:%d in `%s'%s" e.e_from e.e_to e.e_file
    e.e_line e.e_item
    (match e.e_via with None -> "" | Some v -> Printf.sprintf " (via %s)" v)

(* Cycle check over the distinct-instance graph. Self-edges (multi-key
   acquisition inside one manager) are expected — intra-instance ordering
   is the dynamic waits-for detector's job — so they are excluded here. *)
let r7_check acc edges =
  let classes =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> [ e.e_from; e.e_to ]) edges)
  in
  let arr = Array.of_list classes in
  let idx = Hashtbl.create 8 in
  Array.iteri (fun i c -> Hashtbl.replace idx c i) arr;
  let succ i =
    List.filter_map
      (fun e ->
        if e.e_from = arr.(i) && e.e_to <> arr.(i) then
          Hashtbl.find_opt idx e.e_to
        else None)
      edges
  in
  match
    Flow.find_cycle ~nodes:(List.init (Array.length arr) (fun i -> i)) ~succ
  with
  | None -> ()
  | Some cycle ->
    let names = List.map (fun i -> arr.(i)) cycle in
    let pairs =
      match names with
      | [] -> []
      | first :: _ ->
        let rec pair = function
          | [ last ] -> [ (last, first) ]
          | a :: (b :: _ as rest) -> (a, b) :: pair rest
          | [] -> []
        in
        pair names
    in
    let witness =
      List.filter_map
        (fun (a, b) ->
          List.find_opt (fun e -> e.e_from = a && e.e_to = b) edges)
        pairs
    in
    let head =
      match witness with
      | e :: _ -> e
      | [] -> { e_from = ""; e_to = ""; e_file = "?"; e_line = 0;
                e_item = ""; e_via = None }
    in
    acc :=
      flow_finding ~rule:"R7" ~rule_name:"lock-order" ~file:head.e_file
        ~line:head.e_line ~item:head.e_item
        ~message:
          (Printf.sprintf
             "lock-order cycle between manager instances: %s -> %s"
             (String.concat " -> " names)
             (List.hd names))
        ~hint:
          "impose a global acquisition order across lock-manager instances \
           (acquire in one fixed order everywhere) or release the first \
           manager's locks before taking the second's"
        ~detail:(List.map edge_site witness)
      :: !acc

(* ---- R8: durability before reply --------------------------------------- *)

(* Taint model: an un-forced WAL/group-commit append marks the item
   undurable. A force/sync clears it. Releasing a reply or publishing
   state while undurable is the hazard; two severities of release:

   - hard (Ivar.fill, Chan.send, Net.call/cast): the waiter runs with the
     value no matter what happens next — a finding at the release site.
   - soft (Cond.signal/broadcast, Sched.wake): the woken fiber still has
     to re-check shared state; the group-commit design *relies* on
     signal-then-force (apply in memory, wake waiters, then force before
     answering the client). A soft release under taint is therefore only
     pending — a later force in the same item absolves it; pending at item
     exit is the finding.

   Interprocedural: each node gets two symbolic outcomes — entered clean
   and entered tainted — computed to fixpoint; a call site consults the
   outcome matching the caller's current taint. A call-site finding is
   charged to the caller only when caused by the caller's own taint
   (violates when entered tainted, clean when entered clean) — violations
   unconditional in the callee are the callee's own report. *)

type r8_outcome = {
  o_taint : bool;  (* undurable at exit, given the entry taint *)
  o_pending : bool;  (* soft releases outstanding at exit *)
  o_viol : bool;  (* a violation fires inside, given the entry taint *)
  o_force : bool;  (* a force/sync happens inside (entry-independent) *)
}

type r8_summary = { v_false : r8_outcome; v_true : r8_outcome }

let r8_prim c =
  match (c.CG.c_mod, c.CG.c_name) with
  | Some ("Wal" | "Group_commit"), ("append" | "append_enc" | "append_frame") -> `Taint
  | Some "Group_commit", ("force" | "append_force") -> `Clear
  | Some "Wal", ("sync" | "append_sync") -> `Clear
  | Some "Disk", ("sync" | "sync_all") -> `Clear
  | Some "Node_log", ("force" | "force_upto") -> `Clear
  | _, ("commit_lazy" | "auto_commit_lazy") -> `Lazy
  | Some "Cond", ("signal" | "broadcast") -> `Soft
  | Some "Sched", "wake" -> `Soft
  | Some "Ivar", "fill" -> `Hard
  | Some "Chan", "send" -> `Hard
  | Some "Net", ("call" | "cast") -> `Hard
  | _ -> `No

(* Node_log.append is the one unforced append, and its contract is that a
   crash losing the record is recoverable: the TM's END record (the
   paper's lazy-END optimization), a parallel commit's decision record
   (the commit point is the forced staged record plus the participants'
   votes, which recovery asks for) and a participant's forgets. Chasing
   that taint upward would mark every committed transaction undurable
   forever. *)
let r8_lazy = [ "Node_log.append" ]

let r8_targets cg c =
  List.filter
    (fun t -> not (List.mem (CG.label cg t) r8_lazy))
    c.CG.c_tgts

let r8_run cg get (node : CG.node) entry =
  let taint = ref entry in
  let pending = ref false in
  let viol = ref false in
  let force = ref false in
  iter_exec node.CG.n_events (fun c ->
    match r8_prim c with
    | `Taint -> taint := true
    | `Clear ->
      force := true;
      taint := false;
      pending := false
    | `Soft -> if !taint then pending := true
    | `Hard -> if !taint then viol := true
    | `Lazy -> ()
    | `No -> (
      match r8_targets cg c with
      | [] -> ()
      | tgts ->
        let outs =
          List.map
            (fun t ->
              let s = get t in
              if !taint then s.v_true else s.v_false)
            tgts
        in
        let any f = List.exists f outs in
        if any (fun o -> o.o_viol) then viol := true;
        (* several candidates (shadowed module names): force only counts
           if every candidate forces — the conservative direction *)
        if List.for_all (fun o -> o.o_force) outs then begin
          force := true;
          pending := false
        end;
        if any (fun o -> o.o_pending) then pending := true;
        taint := any (fun o -> o.o_taint)));
  { o_taint = !taint; o_pending = !pending; o_viol = !viol; o_force = !force }

let r8_summaries cg =
  let ids = List.init (CG.node_count cg) (fun i -> i) in
  let bot = { o_taint = false; o_pending = false; o_viol = false; o_force = false } in
  let init = { v_false = bot; v_true = { bot with o_taint = true } } in
  let step get id =
    let node = CG.node cg id in
    { v_false = r8_run cg get node false; v_true = r8_run cg get node true }
  in
  Flow.fixpoint ~nodes:ids ~eq:( = ) ~step ~init

let r8_hint =
  "force the log (Group_commit.force / Wal.sync) before releasing the \
   reply, or restructure so the release happens on the post-force path; \
   if the waiter genuinely re-validates against durable state, document \
   the suppression in the baseline"

let r8_node cg get acc (node : CG.node) =
  let taint = ref false in
  let tsite = ref 0 in
  let pending = ref [] in
  (* A lazy commit's obligation: its record rides the next force, so it
     may release its own reply, but nothing after that until a force
     fences it. [`Own]: the lazy commit at that line, its reply not yet
     released; [`Fence]: released, a fence owed. *)
  let owed = ref `None in
  (* (line, what, append site) *)
  let report line message detail =
    acc :=
      flow_finding ~rule:"R8" ~rule_name:"durability-before-reply"
        ~file:node.CG.n_file ~line ~item:node.CG.n_name ~message ~hint:r8_hint
        ~detail
      :: !acc
  in
  iter_exec node.CG.n_events (fun c ->
    let line = c.CG.c_line in
    let prim_label () =
      Printf.sprintf "%s.%s"
        (Option.value ~default:"?" c.CG.c_mod)
        c.CG.c_name
    in
    match r8_prim c with
    | `Taint ->
      if not !taint then begin
        taint := true;
        tsite := line
      end
    | `Clear ->
      taint := false;
      pending := [];
      owed := `None
    | `Lazy -> owed := `Own line
    | `Soft ->
      if !taint then pending := (line, prim_label (), !tsite) :: !pending
    | `Hard ->
      (match !owed with
      | `Own at -> owed := `Fence at
      | `Fence at ->
        report line
          (Printf.sprintf
             "%s releases a second reply while the lazy commit at line %d \
              is not fenced"
             (prim_label ()) at)
          [ Printf.sprintf "lazy since line %d" at ]
      | `None -> ());
      if !taint then
        report line
          (Printf.sprintf
             "%s releases a reply while the append at line %d is not yet \
              forced"
             (prim_label ()) !tsite)
          [ Printf.sprintf "undurable since line %d" !tsite ]
    | `No -> (
      match r8_targets cg c with
      | [] -> ()
      | tgts ->
        let callee = CG.label cg (List.hd tgts) in
        let outs_false = List.map (fun t -> (get t).v_false) tgts in
        let outs_true = List.map (fun t -> (get t).v_true) tgts in
        let any l f = List.exists f l in
        if
          !taint
          && any outs_true (fun o -> o.o_viol)
          && not (any outs_false (fun o -> o.o_viol))
        then
          report line
            (Printf.sprintf
               "a reply released inside `%s' escapes while the append at \
                line %d is not yet forced"
               callee !tsite)
            [ Printf.sprintf "undurable since line %d" !tsite ];
        let outs = if !taint then outs_true else outs_false in
        if List.for_all (fun o -> o.o_force) outs then begin
          pending := [];
          owed := `None
        end;
        if
          !taint
          && any outs_true (fun o -> o.o_pending)
          && not (any outs_false (fun o -> o.o_pending))
        then
          pending :=
            (line, Printf.sprintf "wake inside `%s'" callee, !tsite)
            :: !pending;
        let nt = any outs (fun o -> o.o_taint) in
        if nt && not !taint then tsite := line;
        taint := nt));
  List.iter
    (fun (line, what, site) ->
      report line
        (Printf.sprintf
           "%s under an unforced append (line %d) with no force before the \
            item returns"
           what site)
        [ Printf.sprintf "undurable since line %d, still unforced at exit"
            site ])
    (List.rev !pending)

(* ---- entry point -------------------------------------------------------- *)

let flow_check cg =
  let acc = ref [] in
  let ns = CG.nodes cg in
  List.iter (r5_node acc) ns;
  r7_check acc (lock_order_edges cg);
  let r8 = r8_summaries cg in
  List.iter (r8_node cg r8 acc) ns;
  (* A helper expanded at several call sites can replay the same witness:
     keep one finding per distinct (site, message). *)
  let deduped = List.sort_uniq Stdlib.compare !acc in
  List.sort F.compare deduped
