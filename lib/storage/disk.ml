(* [len] bytes of [data] from [off] hold file contents: a chunk is a view,
   so the device holds exactly the bytes it was handed. [owned]: no one
   else holds [data] (the disk made it, or {!replace_atomic} was handed
   it), so a sync of short frames may copy into the room past the newest
   such view, and [data] may go back to a writer once the contents it
   holds are replaced. A page is an owned chunk of [page_size] bytes that
   the disk made to take short syncs. *)
type chunk = { data : Bytes.t; off : int; mutable len : int; owned : bool }

type file_state = {
  fname : string;
  (* Durable contents as chunks, newest first, and the views appended
     since the last sync, oldest first: view [i] is [p_len.(i)] bytes of
     [p_data.(i)] from [p_off.(i)], for [i < p_n]. The arrays are kept
     across syncs, so an append allocates nothing. A sync makes chunks of
     a long run of views as they are and copies a short one into a page,
     so a synced byte is copied at most once. *)
  mutable durable : chunk list;
  mutable durable_len : int;
  mutable p_data : Bytes.t array;
  mutable p_off : int array;
  mutable p_len : int array;
  mutable p_n : int;
  mutable pending_len : int;
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
        durable = [];
        durable_len = 0;
        p_data = [||];
        p_off = [||];
        p_len = [||];
        p_n = 0;
        pending_len = 0;
        owner = t;
      }
    in
    Hashtbl.add t.files fname f;
    f

(* A string as a chunk: someone else's, so never written to. *)
let alias s =
  { data = Bytes.unsafe_of_string s; off = 0; len = String.length s; owned = false }

let view data owned lo hi chunks =
  if hi > lo then { data; off = lo; len = hi - lo; owned } :: chunks else chunks

(* A layout's chunks pushed onto [chunks], newest first: views of [buf]
   between the spliced strings, which are chunks of their own. [strings]
   counts the spliced bytes in front of [lo]; [len] counts both. *)
let rec views buf owned len lo strings chunks = function
  | [] -> view buf owned lo (len - strings) chunks
  | (at, s) :: later ->
    views buf owned len at (strings + String.length s)
      (alias s :: view buf owned lo at chunks) later

(* Append one view to the pending arrays, growing them when full. *)
let push f data off len =
  if len > 0 then begin
    let n = f.p_n in
    if n = Array.length f.p_data then begin
      let grow a fill =
        let b = Array.make (max 8 (2 * n)) fill in
        Array.blit a 0 b 0 n;
        b
      in
      f.p_data <- grow f.p_data Bytes.empty;
      f.p_off <- grow f.p_off 0;
      f.p_len <- grow f.p_len 0
    end;
    f.p_data.(n) <- data;
    f.p_off.(n) <- off;
    f.p_len.(n) <- len;
    f.p_n <- n + 1
  end

(* The layout's views, oldest first: stretches of [buf] between the
   spliced strings and the strings themselves. *)
let rec push_views f buf len lo strings = function
  | [] -> push f buf lo (len - strings - lo)
  | (at, s) :: later ->
    push f buf lo (at - lo);
    push f (Bytes.unsafe_of_string s) 0 (String.length s);
    push_views f buf len at (strings + String.length s) later

(* Copy the pending views, oldest first, into [dst] from [pos]. *)
let blit_pending f dst pos =
  let pos = ref pos in
  for i = 0 to f.p_n - 1 do
    Bytes.blit f.p_data.(i) f.p_off.(i) dst !pos f.p_len.(i);
    pos := !pos + f.p_len.(i)
  done

(* Copy [chunks] (newest first) into [dst], the newest ending at [hi]. *)
let rec blit_back dst hi = function
  | [] -> ()
  | c :: older ->
    let lo = hi - c.len in
    Bytes.blit c.data c.off dst lo c.len;
    blit_back dst lo older

let concat chunks len =
  let b = Bytes.create len in
  blit_back b len chunks;
  b

(* The slots are emptied too, so a synced frame is not kept alive. *)
let clear_pending f =
  Array.fill f.p_data 0 f.p_n Bytes.empty;
  f.p_n <- 0;
  f.pending_len <- 0

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
      | Some tf, Some rng when tf = fname && f.pending_len > 0 ->
        (* Keep a random prefix of the unsynced tail: a torn block. *)
        let keep = Rrq_util.Rng.int rng (f.pending_len + 1) in
        if keep > 0 then begin
          let torn = Bytes.create f.pending_len in
          blit_pending f torn 0;
          f.durable <- { data = torn; off = 0; len = keep; owned = false } :: f.durable;
          f.durable_len <- f.durable_len + keep
        end
      | _ -> ());
      clear_pending f)
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

let append f buf ~spliced ~len =
  if not f.owner.dead then begin
    push_views f buf len 0 0 spliced;
    f.pending_len <- f.pending_len + len;
    f.owner.last_appended <- Some f.fname
  end

(* A sync of fewer pending bytes than this copies them into a chunk the
   disk owns, mostly a page of [page_size] bytes (fewer heap blocks for a
   log of short records, and frames that die young); a longer one moves
   its views as they are. One disk page is also where the codec starts
   splicing a string rather than copying it, so a spliced string always
   takes the second way. *)
let page_below = Rrq_util.Codec.splice_min
let page_size = 16384

(* The chunk a sync of [n] short bytes is copied into: the newest one if
   the disk owns it and it has room, else a new one. That is a page when
   the newest chunk is the disk's own (or the file is empty), so a run of
   short syncs shares a few pages; after someone else's bytes (a long
   frame, a spliced body) it holds just the [n] bytes, so a short sync
   between long ones never costs a page. *)
let room_for f n =
  match f.durable with
  | c :: _ when c.owned && Bytes.length c.data - c.off - c.len >= n -> c
  | newest ->
    let size = match newest with c :: _ when not c.owned -> n | _ -> page_size in
    let c = { data = Bytes.create size; off = 0; len = 0; owned = true } in
    f.durable <- c :: newest;
    c

let sync f =
  let t = f.owner in
  if allow_durability t then begin
    let n = f.pending_len in
    if n > 0 then begin
      if n >= page_below then
        for i = 0 to f.p_n - 1 do
          f.durable <-
            { data = f.p_data.(i); off = f.p_off.(i); len = f.p_len.(i); owned = false }
            :: f.durable
        done
      else begin
        let c = room_for f n in
        blit_pending f c.data (c.off + c.len);
        c.len <- c.len + n
      end;
      f.durable_len <- f.durable_len + n;
      clear_pending f;
      t.synced_bytes <- t.synced_bytes + n
    end;
    t.sync_count <- t.sync_count + 1
  end

let sync_all t = Hashtbl.iter (fun _ f -> sync f) t.files

let read_durable f = Bytes.unsafe_to_string (concat f.durable f.durable_len)
let durable_size f = f.durable_len
let size f = f.durable_len + f.pending_len

let read f =
  let b = Bytes.create (size f) in
  blit_pending f b f.durable_len;
  blit_back b f.durable_len f.durable;
  Bytes.unsafe_to_string b

(* Install [chunks] (newest first, [len] bytes) as the file's whole
   contents; the buffer of the newest chunk of the contents they replace
   that the disk owned (all of a checkpoint's views share one), else
   [Bytes.empty]. No other file views it, so once replaced it is nobody's;
   never a chunk that aliases a string: only an owned buffer may go back
   to a writer. *)
let install t fname chunks len =
  let f = open_file t fname in
  let old =
    match List.find_opt (fun c -> c.owned) f.durable with
    | Some c -> c.data
    | None -> Bytes.empty
  in
  f.durable <- chunks;
  f.durable_len <- len;
  clear_pending f;
  t.synced_bytes <- t.synced_bytes + len;
  t.sync_count <- t.sync_count + 1;
  old

let replace_atomic t fname buf ~spliced ~len =
  if allow_durability t then install t fname (views buf true len 0 0 [] spliced) len
  else buf

let read_file t fname =
  match Hashtbl.find_opt t.files fname with
  | None -> None
  | Some f -> Some (read f)

(* Metadata lookup: size without materializing the contents (stat, not
   read). *)
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
