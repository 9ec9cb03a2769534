module Codec = Rrq_util.Codec
module Lock = Rrq_txn.Lock
module Rm = Rrq_txn.Rm
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid

exception Conflict of string

type redo = Put of string * string | Del of string

module State = struct
  type state = { data : (string, string) Hashtbl.t; locks : Lock.t }
  type nonrec redo = redo

  let empty () = { data = Hashtbl.create 64; locks = Lock.create ~name:"kvdb" () }

  let encode_redo e = function
    | Put (k, v) ->
      Codec.u8 e 1;
      Codec.string e k;
      Codec.string e v
    | Del k ->
      Codec.u8 e 2;
      Codec.string e k

  let decode_redo d =
    match Codec.get_u8 d with
    | 1 ->
      let k = Codec.get_string d in
      let v = Codec.get_string d in
      Put (k, v)
    | 2 -> Del (Codec.get_string d)
    | n -> raise (Codec.Decode_error (Printf.sprintf "kvdb: bad redo kind %d" n))

  let apply st = function
    | Put (k, v) -> Hashtbl.replace st.data k v
    | Del k -> Hashtbl.remove st.data k

  let snapshot e st =
    Codec.int e (Hashtbl.length st.data);
    Hashtbl.iter
      (fun k v ->
        Codec.string e k;
        Codec.string e v)
      st.data

  let restore d =
    let st = empty () in
    let n = Codec.get_int d in
    for _ = 1 to n do
      let k = Codec.get_string d in
      let v = Codec.get_string d in
      Hashtbl.replace st.data k v
    done;
    st

  (* An in-doubt transaction's writes stay invisible by re-acquiring its
     exclusive locks. Recovery runs with no competing transactions, so these
     grants never block. *)
  let relock st id redos =
    List.iter
      (fun r ->
        let key = match r with Put (k, _) | Del k -> k in
        Lock.acquire st.locks id ~key X)
      redos

  let kind = Rrq_txn.Node_log.Kv
end

module Base = Rm.Make (State)

type t = Base.t

let attach = Base.attach
let open_kv = Base.open_rm
let name = Base.name

let with_conflicts f =
  try f () with
  | Lock.Deadlock msg -> raise (Conflict ("deadlock: " ^ msg))
  | Lock.Cancelled -> raise (Conflict "cancelled")

let lock t id key mode =
  with_conflicts (fun () -> Lock.acquire (Base.state t).State.locks id ~key mode)

(* The newest buffered write to [key], if any. *)
let workspace_value t id key =
  let rec latest = function
    | [] -> None
    | Put (k, v) :: _ when k = key -> Some (Some v)
    | Del k :: _ when k = key -> Some None
    | _ :: rest -> latest rest
  in
  latest (List.rev (Base.workspace t id))

let get t id key =
  lock t id key Lock.S;
  match workspace_value t id key with
  | Some v -> v
  | None -> Hashtbl.find_opt (Base.state t).State.data key

let put t id key value =
  lock t id key Lock.X;
  Base.add_redo t id (Put (key, value))

let delete t id key =
  lock t id key Lock.X;
  Base.add_redo t id (Del key)

let get_int t id key =
  match get t id key with
  | None -> 0
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)

let add t id key delta =
  (* Take the exclusive lock first so read-modify-write never upgrades
     (upgrades are a classic deadlock source under contention). *)
  lock t id key Lock.X;
  let v = get_int t id key + delta in
  Base.add_redo t id (Put (key, string_of_int v));
  v

let transfer_locks t ~from ~to_ =
  Lock.transfer (Base.state t).State.locks ~from ~to_

let release_locks t id =
  Lock.release_all (Base.state t).State.locks id

(* The workspace as a part of a commit record; the locks go once it is
   durable. *)
let with_release t id (p : Rrq_txn.Node_log.part) =
  { p with Rrq_txn.Node_log.durable = (fun () -> release_locks t id) }

let stage t id = with_release t id (Base.stage t id)

let abort t id =
  Base.abort t id;
  Lock.cancel_waits (Base.state t).State.locks id;
  release_locks t id

let participant t =
  {
    Tm.part_name = Base.name t;
    p_local =
      Some
        {
          Tm.l_log = Base.log t;
          l_stage = stage t;
          (* Locks are retained while in doubt. *)
          l_prepare = Base.prepare_part t;
          l_decide = (fun id -> with_release t id (Base.decide_part t id));
        };
    p_prepare =
      (fun id ~coordinator ->
        let yes = Base.prepare t id ~coordinator in
        fun () -> yes);
    p_commit =
      (fun id ->
        Base.commit_prepared t id;
        release_locks t id;
        true);
    p_abort = abort t;
    p_has_work = (fun id -> Base.has_workspace t id || Base.is_prepared t id);
    p_status =
      (fun id ->
        let s = Base.status t id in
        if s = `Unknown then abort t id;
        Some s);
    p_forget = Base.forget t;
  }

let commit t id = Rrq_txn.Node_log.commit (Base.log t) [ stage t id ]

let in_doubt = Base.in_doubt
let relock_in_doubt = Base.relock_in_doubt
let remembered = Base.remembered

let committed_value t key = Hashtbl.find_opt (Base.state t).State.data key

let committed_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Base.state t).State.data []
  |> List.sort compare

let checkpoint t = Rrq_txn.Node_log.checkpoint (Base.log t)
