module Codec = Rrq_util.Codec
module Lock = Rrq_txn.Lock
module Rm = Rrq_txn.Rm
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

  let apply st ~live:_ = function
    | Put (k, v) -> Hashtbl.replace st.data k v
    | Del k -> Hashtbl.remove st.data k

  let logged _ _ = true
  let abort_fixups _ ~stale:_ _ = []

  let snapshot e st =
    Codec.int e (Hashtbl.length st.data);
    Hashtbl.iter
      (fun k v ->
        Codec.string e k;
        Codec.string e v)
      st.data

  let restore st d =
    Hashtbl.reset st.data;
    Option.iter
      (fun d ->
        let n = Codec.get_int d in
        for _ = 1 to n do
          let k = Codec.get_string d in
          let v = Codec.get_string d in
          Hashtbl.replace st.data k v
        done)
      d

  (* An in-doubt transaction's writes stay invisible by re-acquiring its
     exclusive locks. Recovery runs with no competing transactions, so these
     grants never block. *)
  let relock st id redos =
    List.iter
      (fun r ->
        let key = match r with Put (k, _) | Del k -> k in
        Lock.acquire st.locks id ~key X)
      redos

  let locks st = st.locks
  let clock _ = 0.0
  let kind = Rrq_txn.Node_log.Kv
end

module Base = Rm.Make (State)

type t = Base.t

let attach log ~name = Base.attach log ~name (State.empty ())
let open_kv disk ~name = attach (Rrq_txn.Node_log.open_log disk ~name) ~name
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

let participant = Base.participant
let commit = Base.commit
let in_doubt = Base.in_doubt
let relock_in_doubt = Base.relock_in_doubt
let remembered = Base.remembered

let committed_value t key = Hashtbl.find_opt (Base.state t).State.data key

let committed_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Base.state t).State.data []
  |> List.sort compare

let checkpoint t = Rrq_txn.Node_log.checkpoint (Base.log t)
