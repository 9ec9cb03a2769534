type file_state = {
  fname : string;
  (* Durable contents: [spilled] chunks (newest first) then [durable]. A
     growing log moves its synced bytes into chunks of [spill_at] bytes,
     so it never holds a doubling buffer as large as itself. *)
  mutable spilled : string list;
  mutable spilled_len : int;
  mutable durable : Buffer.t;
  mutable pending : Buffer.t;
  owner : t;
}

and t = {
  dname : string;
  torn_writes : bool;
  rng : Rrq_util.Rng.t option;
  sync_latency : float; (* virtual seconds one flush occupies the device *)
  mutable busy_until : float; (* device free again at this virtual time *)
  files : (string, file_state) Hashtbl.t;
  mutable last_appended : string option;
  mutable synced_bytes : int;
  mutable sync_count : int;
  mutable kill_in : int option; (* crash-point injection countdown *)
  mutable dead : bool;
}

type file = file_state

let create ?(torn_writes = false) ?rng ?(sync_latency = 0.0) dname =
  {
    dname;
    torn_writes;
    rng;
    sync_latency;
    busy_until = 0.0;
    files = Hashtbl.create 16;
    last_appended = None;
    synced_bytes = 0;
    sync_count = 0;
    kill_in = None;
    dead = false;
  }

let name t = t.dname
let sync_latency t = t.sync_latency

(* The device serves one flush at a time: a sync requested at [now] starts
   when the previous one finishes and completes [sync_latency] later. The
   caller (a group-commit leader running in a fiber) sleeps for the
   returned duration before issuing the actual [sync] — this is how the
   simulator charges realistic cost per device flush, however many
   commits the flush covers, without the storage layer depending on the
   sim. *)
let reserve_sync t ~now =
  let start = Float.max now t.busy_until in
  t.busy_until <- start +. t.sync_latency;
  t.busy_until -. now

let open_file t fname =
  match Hashtbl.find_opt t.files fname with
  | Some f -> f
  | None ->
    let f =
      {
        fname;
        spilled = [];
        spilled_len = 0;
        durable = Buffer.create 256;
        pending = Buffer.create 256;
        owner = t;
      }
    in
    Hashtbl.add t.files fname f;
    f

(* Shared by the public crash and the injected crash-point trigger. *)
let crash_now t =
  let torn_file =
    match (t.torn_writes, t.rng, t.last_appended) with
    | true, Some rng, Some fname when Rrq_util.Rng.bool rng -> Some fname
    | _ -> None
  in
  Hashtbl.iter
    (fun fname f ->
      (match (torn_file, t.rng) with
      | Some tf, Some rng when tf = fname && Buffer.length f.pending > 0 ->
        (* Keep a random prefix of the unsynced tail: a torn block. *)
        let keep = Rrq_util.Rng.int rng (Buffer.length f.pending + 1) in
        let prefix = String.sub (Buffer.contents f.pending) 0 keep in
        Buffer.add_string f.durable prefix
      | _ -> ());
      Buffer.clear f.pending)
    t.files;
  t.last_appended <- None

(* The crash-point countdown: returns false when the pending durability
   action must be suppressed (the disk just died, or died earlier). *)
let allow_durability t =
  if t.dead then false
  else begin
    match t.kill_in with
    | Some n when n <= 1 ->
      t.kill_in <- None;
      t.dead <- true;
      crash_now t;
      false
    | Some n ->
      t.kill_in <- Some (n - 1);
      true
    | None -> true
  end

let append f bytes =
  if not f.owner.dead then begin
    Buffer.add_string f.pending bytes;
    f.owner.last_appended <- Some f.fname
  end

let append_i64 f v =
  if not f.owner.dead then begin
    Buffer.add_int64_le f.pending v;
    f.owner.last_appended <- Some f.fname
  end

let append_sub f buf ~pos ~len =
  if not f.owner.dead then begin
    Buffer.add_subbytes f.pending buf pos len;
    f.owner.last_appended <- Some f.fname
  end

let spill_at = 65536

let unspill f =
  f.spilled <- [];
  f.spilled_len <- 0

let sync f =
  let t = f.owner in
  if allow_durability t then begin
    let n = Buffer.length f.pending in
    if n > 0 then begin
      Buffer.add_buffer f.durable f.pending;
      Buffer.clear f.pending;
      t.synced_bytes <- t.synced_bytes + n;
      if Buffer.length f.durable >= spill_at then begin
        f.spilled <- Buffer.contents f.durable :: f.spilled;
        f.spilled_len <- f.spilled_len + Buffer.length f.durable;
        Buffer.clear f.durable
      end
    end;
    t.sync_count <- t.sync_count + 1
  end

let sync_all t = Hashtbl.iter (fun _ f -> sync f) t.files

let read_durable f =
  String.concat "" (List.rev (Buffer.contents f.durable :: f.spilled))

let read f = read_durable f ^ Buffer.contents f.pending
let durable_size f = f.spilled_len + Buffer.length f.durable
let size f = durable_size f + Buffer.length f.pending

let replace_atomic t fname contents =
  if allow_durability t then begin
    let f = open_file t fname in
    let fresh = Buffer.create (String.length contents) in
    Buffer.add_string fresh contents;
    unspill f;
    f.durable <- fresh;
    Buffer.clear f.pending;
    t.synced_bytes <- t.synced_bytes + String.length contents;
    t.sync_count <- t.sync_count + 1
  end

let read_file t fname =
  match Hashtbl.find_opt t.files fname with
  | None -> None
  | Some f -> Some (read f)

(* Metadata lookup: size without materializing the contents (stat, not
   read). Used by the WAL's live-bytes accounting. *)
let file_size t fname =
  match Hashtbl.find_opt t.files fname with
  | None -> None
  | Some f -> Some (size f)

let delete t fname = if not t.dead then Hashtbl.remove t.files fname
let exists t fname = Hashtbl.mem t.files fname

let list_files t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.files [] |> List.sort compare

let crash t = crash_now t

let kill_after_syncs t n = t.kill_in <- Some n

(* Immediate freeze: same terminal state as an exhausted [kill_after_syncs]
   countdown — unsynced bytes are gone and nothing persists until [revive].
   Crash actions armed at named crash sites use this so the fiber that
   reached the site cannot leak durable writes before the scheduled node
   crash lands. *)
let kill_now t =
  if not t.dead then begin
    t.kill_in <- None;
    t.dead <- true;
    crash_now t
  end
let revive t =
  t.dead <- false;
  t.kill_in <- None

let is_dead t = t.dead

let synced_bytes t = t.synced_bytes
let sync_count t = t.sync_count

let reset_counters t =
  t.synced_bytes <- 0;
  t.sync_count <- 0
