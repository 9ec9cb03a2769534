type fiber = {
  fid : int;
  name : string;
  group : string option;
  mutable live : bool;
}

(* Binary min-heap of timers ordered by (time, sequence). Each entry knows
   its slot ([idx], -1 once out of the heap), so a cancelled timeout is
   removed in O(log n) instead of lingering until its deadline. *)
module Heap = struct
  type entry = {
    time : float;
    seq : int;
    bg : bool;
    thunk : unit -> unit;
    mutable idx : int;
  }

  type h = { mutable arr : entry array; mutable len : int }

  let dummy = { time = 0.0; seq = 0; bg = false; thunk = (fun () -> ()); idx = -1 }
  let create () = { arr = Array.make 64 dummy; len = 0 }
  let is_empty h = h.len = 0
  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let set h i e =
    h.arr.(i) <- e;
    e.idx <- i

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      let e = h.arr.(i) in
      if less e h.arr.(p) then begin
        set h i h.arr.(p);
        set h p e;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < h.len && less h.arr.(l) h.arr.(i) then l else i in
    let smallest =
      if r < h.len && less h.arr.(r) h.arr.(smallest) then r else smallest
    in
    if smallest <> i then begin
      let e = h.arr.(i) in
      set h i h.arr.(smallest);
      set h smallest e;
      sift_down h smallest
    end

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    set h h.len e;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  (* Take out the entry at slot [i], moving the last entry into its place. *)
  let remove_at h i =
    let e = h.arr.(i) in
    e.idx <- -1;
    h.len <- h.len - 1;
    if i < h.len then begin
      set h i h.arr.(h.len);
      h.arr.(h.len) <- dummy;
      sift_down h i;
      sift_up h i
    end
    else h.arr.(i) <- dummy;
    e

  let pop h =
    assert (h.len > 0);
    remove_at h 0

  (* Remove [e] if it is still in the heap; whether it was. *)
  let remove h e = e.idx >= 0 && (ignore (remove_at h e.idx); true)

  let peek_time h =
    assert (h.len > 0);
    h.arr.(0).time
end

(* Ready set: an indexable queue so a scheduling policy can pick any entry,
   not just the head. [take 0] (the FIFO fast path) is O(1); removing from
   the middle shifts the tail, which is fine because ready sets are small. *)
module Ready = struct
  type entry = { prio : int; rthunk : unit -> unit }

  type q = { mutable arr : entry array; mutable head : int; mutable len : int }

  let dummy = { prio = 0; rthunk = (fun () -> ()) }
  let create () = { arr = Array.make 64 dummy; head = 0; len = 0 }
  let length q = q.len

  let push q prio rthunk =
    if q.head + q.len = Array.length q.arr then begin
      let cap = Array.length q.arr in
      let newcap = if 2 * q.len > cap then 2 * cap else cap in
      let dst = Array.make newcap dummy in
      Array.blit q.arr q.head dst 0 q.len;
      q.arr <- dst;
      q.head <- 0
    end;
    q.arr.(q.head + q.len) <- { prio; rthunk };
    q.len <- q.len + 1

  (* Index (relative to the head) of the maximum-priority entry; ties go to
     the oldest, so equal priorities degrade to FIFO. *)
  let argmax_prio q =
    let best = ref 0 in
    for i = 1 to q.len - 1 do
      if q.arr.(q.head + i).prio > q.arr.(q.head + !best).prio then best := i
    done;
    !best

  let take q i =
    assert (i >= 0 && i < q.len);
    let e = q.arr.(q.head + i) in
    if i = 0 then begin
      q.arr.(q.head) <- dummy;
      q.head <- q.head + 1
    end
    else begin
      for j = q.head + i to q.head + q.len - 2 do
        q.arr.(j) <- q.arr.(j + 1)
      done;
      q.arr.(q.head + q.len - 1) <- dummy
    end;
    q.len <- q.len - 1;
    if q.len = 0 then q.head <- 0;
    e.rthunk
end

type decision = Pick of int | Timer_fired of int | Fault of string

type policy =
  | Fifo
  | Random_priority of int
  | Replay of decision array

(* A decision as one int, [Pick i] as [2i] and [Timer_fired seq] as
   [2*seq+1]: the form [record] takes and the livelock ring keeps. *)
let enc_pick i = i lsl 1
let enc_timer seq = (seq lsl 1) lor 1

let dec code = if code land 1 = 0 then Pick (code lsr 1) else Timer_fired (code lsr 1)

let decision_to_string = function
  | Pick i -> "p" ^ string_of_int i
  | Timer_fired s -> "t" ^ string_of_int s
  | Fault l -> "f:" ^ l

let decision_of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Sched.decision_of_string: empty"
  else if s.[0] = 'p' then Pick (int_of_string (String.sub s 1 (n - 1)))
  else if s.[0] = 't' then Timer_fired (int_of_string (String.sub s 1 (n - 1)))
  else if n >= 2 && s.[0] = 'f' && s.[1] = ':' then Fault (String.sub s 2 (n - 2))
  else invalid_arg ("Sched.decision_of_string: " ^ s)

let trace_to_string ds =
  String.concat ";" (Array.to_list (Array.map decision_to_string ds))

let trace_of_string s =
  if s = "" then [||]
  else Array.of_list (List.map decision_of_string (String.split_on_char ';' s))

let recent_size = 24

type t = {
  mutable vnow : float;
  ready : Ready.q;
  timers : Heap.h;
  mutable fg_timers : int; (* non-background timers still in the heap *)
  mutable seq : int;
  mutable next_fid : int;
  (* Live fibers only, by fid: a fiber leaves when it finishes, dies or is
     killed, so the table is as large as the live population, not the
     run's history. *)
  fibers : (int, fiber) Hashtbl.t;
  mutable errors : (string * exn) list;
  pol : policy;
  prng : Rrq_util.Rng.t option; (* priority source for Random_priority *)
  mutable replay_pos : int; (* cursor into the Replay decision array *)
  (* Decision trace: picks/timer firings up to [tr_limit] decisions,
     byte-coded into fixed-size chunks ([tr_full], newest first, then the
     current chunk [tr_cur] filled to [tr_pos]), plus a side list of
     injected faults. [n_decisions] counts past the limit so truncation is
     detectable; [recent] is a ring of the last few int-coded decisions for
     livelock diagnostics. *)
  mutable tr_full : Bytes.t list;
  mutable tr_cur : Bytes.t;
  mutable tr_pos : int;
  mutable tr_seq : int; (* seq of the last recorded timer firing *)
  mutable tr_len : int;
  tr_limit : int;
  mutable n_decisions : int;
  mutable faults : (int * string) list; (* (position, label), newest first *)
  recent : int array;
  mutable recent_n : int;
}

let create ?(policy = Fifo) ?(trace_limit = 1_000_000) () =
  {
    vnow = 0.0;
    ready = Ready.create ();
    timers = Heap.create ();
    fg_timers = 0;
    seq = 0;
    next_fid = 0;
    fibers = Hashtbl.create 64;
    errors = [];
    pol = policy;
    prng =
      (match policy with
      | Random_priority seed -> Some (Rrq_util.Rng.create seed)
      | Fifo | Replay _ -> None);
    replay_pos = 0;
    tr_full = [];
    tr_cur = Bytes.empty;
    tr_pos = 0;
    tr_seq = 0;
    tr_len = 0;
    tr_limit = max 0 trace_limit;
    n_decisions = 0;
    faults = [];
    recent = Array.make recent_size (-1);
    recent_n = 0;
  }

let now t = t.vnow

(* The byte code of a decision is a little-endian base-128 varint: [Pick i]
   as [2i], one byte under FIFO; a timer firing as
   [2 * zigzag (seq - previous fired seq) + 1], one byte for the usual
   in-order firing. Chunks are appended, never copied, so a growing trace
   leaves no garbage. *)
let chunk_size = 65_536

let push_byte t b =
  if t.tr_pos = Bytes.length t.tr_cur then begin
    if t.tr_pos > 0 then t.tr_full <- t.tr_cur :: t.tr_full;
    t.tr_cur <- Bytes.create chunk_size;
    t.tr_pos <- 0
  end;
  Bytes.unsafe_set t.tr_cur t.tr_pos (Char.unsafe_chr b);
  t.tr_pos <- t.tr_pos + 1

let rec push_varint t v =
  if v < 0x80 then push_byte t v
  else begin
    push_byte t (v land 0x7f lor 0x80);
    push_varint t (v lsr 7)
  end

let zigzag d = (d lsl 1) lxor (d asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

let record t code =
  if t.tr_len < t.tr_limit then begin
    if code land 1 = 0 then push_varint t code
    else begin
      let seq = code lsr 1 in
      push_varint t ((zigzag (seq - t.tr_seq) lsl 1) lor 1);
      t.tr_seq <- seq
    end;
    t.tr_len <- t.tr_len + 1
  end;
  t.recent.(t.n_decisions mod recent_size) <- code;
  t.recent_n <- min recent_size (t.recent_n + 1);
  t.n_decisions <- t.n_decisions + 1

let note_fault t label = t.faults <- (t.n_decisions, label) :: t.faults

(* Decisions in order, decoded straight into an array of exact size, with
   each fault note spliced in at the position it was injected (faults
   recorded at position [p] precede the p-th pick). *)
let trace t =
  let out = Array.make (t.tr_len + List.length t.faults) (Pick 0) in
  let k = ref 0 in
  let emit d =
    out.(!k) <- d;
    incr k
  in
  let faults = ref (List.rev t.faults) in
  let splice_up_to pos =
    let continue_ = ref true in
    while !continue_ do
      match !faults with
      | (p, l) :: rest when p <= pos ->
        faults := rest;
        emit (Fault l)
      | _ -> continue_ := false
    done
  in
  let n = ref 0 and seq = ref 0 and v = ref 0 and shift = ref 0 in
  let decode chunk len =
    for j = 0 to len - 1 do
      let b = Bytes.get_uint8 chunk j in
      v := !v lor ((b land 0x7f) lsl !shift);
      if b < 0x80 then begin
        splice_up_to !n;
        if !v land 1 = 0 then emit (Pick (!v lsr 1))
        else begin
          seq := !seq + unzigzag (!v lsr 1);
          emit (Timer_fired !seq)
        end;
        incr n;
        v := 0;
        shift := 0
      end
      else shift := !shift + 7
    done
  in
  List.iter (fun c -> decode c chunk_size) (List.rev t.tr_full);
  decode t.tr_cur t.tr_pos;
  splice_up_to max_int;
  out

let trace_truncated t = t.n_decisions > t.tr_len

let recent_decisions t =
  let n = t.recent_n in
  List.init n (fun i ->
      dec t.recent.((t.n_decisions - n + i) mod recent_size))

let arm t ~background time thunk =
  t.seq <- t.seq + 1;
  if not background then t.fg_timers <- t.fg_timers + 1;
  let e =
    { Heap.time = Float.max time t.vnow; seq = t.seq; bg = background; thunk; idx = -1 }
  in
  Heap.push t.timers e;
  e

let at ?(background = false) t time thunk = ignore (arm t ~background time thunk)
let pending_timers t = t.timers.Heap.len

let push_ready t thunk =
  let prio = match t.prng with Some rng -> Rrq_util.Rng.int rng 1_000_000 | None -> 0 in
  Ready.push t.ready prio thunk

(* [wtimer] is the waker's timeout ([Heap.dummy] when it has none): the
   first [wake] takes it out of the heap, so a timeout that lost its race
   neither lingers there nor keeps [run] going. *)
type 'a waker = {
  mutable used : bool;
  wfiber : fiber;
  wk : ('a, unit) Effect.Deep.continuation;
  wsched : t;
  mutable wtimer : Heap.entry;
}

let waker_live w = (not w.used) && w.wfiber.live

(* A timeout is a foreground timer, so removing one drops [fg_timers]. *)
let cancel_timer w =
  let e = w.wtimer in
  if e != Heap.dummy then begin
    w.wtimer <- Heap.dummy;
    if Heap.remove w.wsched.timers e then w.wsched.fg_timers <- w.wsched.fg_timers - 1
  end

let wake w v =
  if w.used then false
  else begin
    w.used <- true;
    cancel_timer w;
    if w.wfiber.live then begin
      push_ready w.wsched (fun () ->
          if w.wfiber.live then Effect.Deep.continue w.wk v);
      true
    end
    else false
  end

let timeout w d f =
  if w.used || w.wtimer != Heap.dummy then
    invalid_arg "Sched.timeout: waker already woken or timed";
  let t = w.wsched in
  w.wtimer <- arm t ~background:false (t.vnow +. d) f

type _ Effect.t +=
  | Suspend : (t -> 'a waker -> unit) -> 'a Effect.t
  | Fork : (string option * (unit -> unit)) -> fiber Effect.t
  | Clock : float Effect.t
  | Self : fiber Effect.t

let clock () = Effect.perform Clock
let self () = Effect.perform Self

(* Whether the caller runs inside a fiber (so blocking primitives work).
   Library code that is also usable outside the simulator — the group-commit
   force path — uses this to fall back to synchronous behavior. *)
let in_fiber () =
  match Effect.perform Self with
  | (_ : fiber) -> true
  | exception Effect.Unhandled _ -> false
let suspend register = Effect.perform (Suspend register)

let sleep d =
  suspend (fun sched w -> at sched (sched.vnow +. d) (fun () -> ignore (wake w ())))

(* Background sleep: daemons (janitors, resolvers, redelivery retries) use
   this so an otherwise-quiescent simulation can terminate. *)
let sleep_background d =
  suspend (fun sched w ->
      at ~background:true sched (sched.vnow +. d) (fun () -> ignore (wake w ())))

let yield () =
  suspend (fun sched w -> push_ready sched (fun () -> ignore (wake w ())))

(* A fiber that finished, died or was killed: it never runs again. *)
let kill t fib =
  fib.live <- false;
  Hashtbl.remove t.fibers fib.fid

let rec spawn t ?group ~name body =
  t.next_fid <- t.next_fid + 1;
  let fib = { fid = t.next_fid; name; group; live = true } in
  Hashtbl.replace t.fibers fib.fid fib;
  push_ready t (fun () -> if fib.live then start t fib body);
  fib

and start t fib body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> kill t fib);
      exnc =
        (fun e ->
          kill t fib;
          (* An injected crash is a kill, not a program failure: the fiber
             unwound exactly as a crashed process disappears. *)
          match e with
          | Crashpoint.Crash -> ()
          | e -> t.errors <- (fib.name, e) :: t.errors);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, _) continuation) ->
                let w =
                  { used = false; wfiber = fib; wk = k; wsched = t; wtimer = Heap.dummy }
                in
                register t w)
          | Fork (name, child_body) ->
            Some
              (fun (k : (a, _) continuation) ->
                let child_name =
                  match name with
                  | Some n -> n
                  | None -> fib.name ^ "/" ^ string_of_int (t.next_fid + 1)
                in
                let child = spawn t ?group:fib.group ~name:child_name child_body in
                continue k child)
          | Clock -> Some (fun (k : (a, _) continuation) -> continue k t.vnow)
          | Self -> Some (fun (k : (a, _) continuation) -> continue k fib)
          | _ -> None);
    }

let fork ?name body = Effect.perform (Fork (name, body))

let kill_group t group =
  Hashtbl.filter_map_inplace
    (fun _ fib ->
      if fib.group = Some group then begin
        fib.live <- false;
        None
      end
      else Some fib)
    t.fibers

let alive fib = fib.live
let fiber_group fib = fib.group

let live_fibers t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.fibers []
  |> List.sort (fun a b -> compare a.fid b.fid)
  |> List.map (fun f -> f.name)

let failures t = List.rev t.errors

(* The next recorded pick of a replayed trace; non-pick entries (timer
   firings, fault notes) are informational and skipped. A divergent or
   exhausted trace degrades to FIFO rather than failing, so a replay of a
   slightly-stale trace still runs to completion. *)
let replay_pick t arr n =
  let rec go () =
    if t.replay_pos >= Array.length arr then 0
    else begin
      let d = arr.(t.replay_pos) in
      t.replay_pos <- t.replay_pos + 1;
      match d with
      | Pick i -> if i < n then i else 0
      | Timer_fired _ | Fault _ -> go ()
    end
  in
  go ()

let pick_index t n =
  match t.pol with
  | Fifo -> 0
  | Random_priority _ -> Ready.argmax_prio t.ready
  | Replay arr -> replay_pick t arr n

let limit_failure t =
  let live = live_fibers t in
  let shown, more =
    let rec split n acc = function
      | [] -> (List.rev acc, 0)
      | rest when n = 0 -> (List.rev acc, List.length rest)
      | x :: rest -> split (n - 1) (x :: acc) rest
    in
    split 20 [] live
  in
  let live_s =
    String.concat ", " shown
    ^ if more > 0 then Printf.sprintf ", ...(+%d more)" more else ""
  in
  let recent_s =
    String.concat " " (List.map decision_to_string (recent_decisions t))
  in
  Printf.sprintf
    "Sched.run: step limit exceeded (livelock?) at t=%.3f; %d live fibers: \
     [%s]; last %d decisions: %s"
    t.vnow (List.length live) live_s (List.length (recent_decisions t)) recent_s

let run ?(max_steps = 50_000_000) t =
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let n = Ready.length t.ready in
    if n > 0 then begin
      incr steps;
      if !steps > max_steps then failwith (limit_failure t);
      let i = pick_index t n in
      record t (enc_pick i);
      let thunk = Ready.take t.ready i in
      thunk ()
    end
    else if (not (Heap.is_empty t.timers)) && t.fg_timers > 0 then begin
      t.vnow <- Float.max t.vnow (Heap.peek_time t.timers);
      let e = Heap.pop t.timers in
      if not e.Heap.bg then t.fg_timers <- t.fg_timers - 1;
      incr steps;
      if !steps > max_steps then failwith (limit_failure t);
      record t (enc_timer e.Heap.seq);
      e.Heap.thunk ()
    end
    else continue_ := false
  done
