module Sched = Rrq_sim.Sched

type mode = S | X

exception Deadlock of string
exception Cancelled

type grant_result = Granted | Cancelled_by_peer | Timed_out

type waiter = {
  wtx : Txid.t;
  wmode : mode;
  waker : grant_result Sched.waker;
}

type entry = {
  key : string;
  mutable granted : (Txid.t * mode) list;
  mutable waiting : waiter list; (* FIFO, head oldest *)
}

type t = {
  lm_name : string; (* instance class for the lock-order witness *)
  table : (string, entry) Hashtbl.t;
  (* The keys each transaction holds: a few per transaction, so a list. *)
  held : (Txid.t, string list) Hashtbl.t;
  waits : (Txid.t, entry * mode) Hashtbl.t; (* each tx waits on <=1 lock *)
}

let create ?(name = "lock") () =
  {
    lm_name = name;
    table = Hashtbl.create 64;
    held = Hashtbl.create 64;
    waits = Hashtbl.create 16;
  }

(* Lock-order witness hook, at every fresh grant (both grant points: the
   immediate [attempt] path and the FIFO [pump] path) and at release-all.
   [transfer] moves keys without a grant; the receiving transaction
   under-reports, which is the safe direction for the witness's
   observed-⊆-static containment check. *)
let note_grant t tx =
  if Rrq_obs.enabled () then
    Rrq_obs.Lock_order.note_acquire ~txid:(Txid.to_string tx) t.lm_name

let compatible a b = a = S && b = S
let weaker_or_equal a b = a = b || (a = S && b = X)

let entry_of t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    let e = { key; granted = []; waiting = [] } in
    Hashtbl.add t.table key e;
    e

(* An entry lives while its key has a holder or a waiter, so the table
   does not keep one per key ever locked. *)
let drop_if_idle t e =
  if e.granted = [] && e.waiting = [] then Hashtbl.remove t.table e.key

let note_held t tx key =
  match Hashtbl.find_opt t.held tx with
  | Some keys -> if not (List.mem key keys) then Hashtbl.replace t.held tx (key :: keys)
  | None -> Hashtbl.add t.held tx [ key ]

let current_mode e tx =
  List.assoc_opt tx (List.map (fun (x, m) -> (x, m)) e.granted)

let set_granted e tx mode =
  e.granted <- (tx, mode) :: List.filter (fun (x, _) -> not (Txid.equal x tx)) e.granted

let conflicting_holders e tx mode =
  List.filter_map
    (fun (x, m) ->
      if Txid.equal x tx then None
      else if compatible mode m then None
      else Some x)
    e.granted

(* Grant as many waiters as possible, FIFO-strictly from the head.
   An upgrader (holds S, wants X) is granted when it is the sole holder. *)
let rec pump t e =
  match e.waiting with
  | [] -> ()
  | w :: rest ->
    let cur = current_mode e w.wtx in
    let is_upgrade = cur = Some S && w.wmode = X in
    let grantable =
      if is_upgrade then
        List.for_all (fun (x, _) -> Txid.equal x w.wtx) e.granted
      else conflicting_holders e w.wtx w.wmode = []
    in
    if grantable then begin
      e.waiting <- rest;
      Hashtbl.remove t.waits w.wtx;
      if Sched.waker_live w.waker then begin
        set_granted e w.wtx (if is_upgrade then X else w.wmode);
        note_held t w.wtx e.key;
        note_grant t w.wtx;
        ignore (Sched.wake w.waker Granted)
      end;
      pump t e
    end
    else if not (Sched.waker_live w.waker) then begin
      (* Dead waiter (fiber killed in a node crash): drop and continue. *)
      e.waiting <- rest;
      Hashtbl.remove t.waits w.wtx;
      pump t e
    end

(* Waits-for edges of a blocked transaction: the incompatible holders of the
   lock it waits on, plus incompatible waiters queued ahead of it. *)
let blockers t tx =
  match Hashtbl.find_opt t.waits tx with
  | None -> []
  | Some (e, mode) ->
    let ahead = ref [] in
    (try
       List.iter
         (fun w ->
           if Txid.equal w.wtx tx then raise Exit
           else if not (compatible mode w.wmode) then ahead := w.wtx :: !ahead)
         e.waiting
     with Exit -> ());
    conflicting_holders e tx mode @ !ahead

let would_deadlock t ~requester ~first_blockers =
  let visited = Hashtbl.create 16 in
  let rec reach tx =
    if Txid.equal tx requester then true
    else if Hashtbl.mem visited tx then false
    else begin
      Hashtbl.add visited tx ();
      List.exists reach (blockers t tx)
    end
  in
  List.exists reach first_blockers

let attempt t tx e mode =
  let cur = current_mode e tx in
  match cur with
  | Some m when weaker_or_equal mode m -> `Granted
  | _ ->
    let is_upgrade = cur = Some S && mode = X in
    let conflicts = conflicting_holders e tx mode in
    let grantable =
      conflicts = []
      && (is_upgrade
          || List.for_all (fun w -> not (Sched.waker_live w.waker)) e.waiting)
    in
    if grantable then begin
      set_granted e tx (if is_upgrade then X else mode);
      note_held t tx e.key;
      note_grant t tx;
      `Granted
    end
    else `Blocked conflicts

let acquire ?timeout t tx ~key mode =
  let e = entry_of t key in
  match attempt t tx e mode with
  | `Granted -> ()
  | `Blocked conflicts ->
    (* Both current holders and live queued waiters block this request. *)
    let waiter_txs =
      List.filter_map
        (fun w -> if Sched.waker_live w.waker then Some w.wtx else None)
        e.waiting
    in
    let first_blockers = conflicts @ waiter_txs in
    if would_deadlock t ~requester:tx ~first_blockers then
      raise (Deadlock (Printf.sprintf "lock %s for %s" key (Txid.to_string tx)));
    let result =
      Sched.suspend (fun _ w ->
          e.waiting <- e.waiting @ [ { wtx = tx; wmode = mode; waker = w } ];
          Hashtbl.replace t.waits tx (e, mode);
          match timeout with
          | None -> ()
          | Some d ->
            Sched.timeout w d (fun () ->
                if Sched.wake w Timed_out then begin
                  e.waiting <-
                    List.filter (fun w' -> not (Txid.equal w'.wtx tx)) e.waiting;
                  Hashtbl.remove t.waits tx;
                  drop_if_idle t e
                end))
    in
    (match result with
    | Granted -> () (* pump granted the lock before waking us *)
    | Cancelled_by_peer -> raise Cancelled
    | Timed_out ->
      raise
        (Deadlock
           (Printf.sprintf "lock timeout on %s for %s" key (Txid.to_string tx))))

let try_acquire t tx ~key mode =
  let e = entry_of t key in
  match attempt t tx e mode with `Granted -> true | `Blocked _ -> false

let holds t tx ~key mode =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some e -> begin
    match current_mode e tx with
    | Some m -> weaker_or_equal mode m
    | None -> false
  end

(* Every commit releases, but in the default non-strict mode no QM lock is
   ever taken — so short-circuit on table emptiness ([Hashtbl.length] is a
   stored count) before paying any Txid-keyed hashing. *)
let cancel_waits t tx =
  if Hashtbl.length t.waits > 0 then begin
    match Hashtbl.find_opt t.waits tx with
    | None -> ()
    | Some (e, _) ->
      let mine, others =
        List.partition (fun w -> Txid.equal w.wtx tx) e.waiting
      in
      e.waiting <- others;
      Hashtbl.remove t.waits tx;
      List.iter (fun w -> ignore (Sched.wake w.waker Cancelled_by_peer)) mine;
      pump t e;
      drop_if_idle t e
  end

let release_all t tx =
  if Rrq_obs.enabled () then
    Rrq_obs.Lock_order.note_release_all ~txid:(Txid.to_string tx);
  cancel_waits t tx;
  if Hashtbl.length t.held > 0 then begin
    (match Hashtbl.find_opt t.held tx with
    | None -> ()
    | Some keys ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.table key with
          | None -> ()
          | Some e ->
            e.granted <-
              List.filter (fun (x, _) -> not (Txid.equal x tx)) e.granted;
            pump t e;
            drop_if_idle t e)
        keys);
    Hashtbl.remove t.held tx
  end

let transfer t ~from ~to_ =
  (match Hashtbl.find_opt t.held from with
  | None -> ()
  | Some keys ->
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.table key with
        | None -> ()
        | Some e ->
          let from_mode = current_mode e from in
          let to_mode = current_mode e to_ in
          (match from_mode with
          | None -> ()
          | Some fm ->
            let merged =
              match to_mode with Some X -> X | Some S -> if fm = X then X else S | None -> fm
            in
            e.granted <-
              List.filter
                (fun (x, _) -> not (Txid.equal x from || Txid.equal x to_))
                e.granted;
            e.granted <- (to_, merged) :: e.granted;
            note_held t to_ key))
      keys;
    Hashtbl.remove t.held from)

let locked t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some e -> e.granted <> []

let entries t = Hashtbl.length t.table
