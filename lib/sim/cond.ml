type t = { mutable queue : bool Sched.waker list }

let create () = { queue = [] }

let wait t =
  let ok = Sched.suspend (fun _ w -> t.queue <- t.queue @ [ w ]) in
  assert ok

let leave t w =
  if List.memq w t.queue then t.queue <- List.filter (( != ) w) t.queue

(* Block with a timeout; a timeout that wins drops [w] from the queue, so
   a cond polled with timeouts and never signalled does not collect dead
   wakers. *)
let wait_timeout t d =
  Sched.suspend (fun _ w ->
      t.queue <- t.queue @ [ w ];
      Sched.timeout w d (fun () -> if Sched.wake w false then leave t w))

(* The same one-shot waker sits in every queue; whichever is signalled
   first wins. A signal pops it from its own cond only, so once woken the
   waiter takes it out of the others, or a cond of the set that is seldom
   signalled would collect one dead waker per wait. One cond needs none of
   that bookkeeping, which a blocked dequeue would pay on every wait. *)
let wait_any ?timeout conds =
  match (conds, timeout) with
  | [ c ], None ->
    wait c;
    true
  | [ c ], Some d -> wait_timeout c d
  | _ ->
    let mine = ref None in
    let woken =
      Sched.suspend (fun _ w ->
          mine := Some w;
          List.iter (fun c -> c.queue <- c.queue @ [ w ]) conds;
          Option.iter
            (fun d -> Sched.timeout w d (fun () -> ignore (Sched.wake w false)))
            timeout)
    in
    Option.iter (fun w -> List.iter (fun c -> leave c w) conds) !mine;
    woken

let rec signal t =
  match t.queue with
  | [] -> ()
  | w :: rest ->
    t.queue <- rest;
    if not (Sched.wake w true) then signal t

let broadcast t =
  let q = t.queue in
  t.queue <- [];
  List.iter (fun w -> ignore (Sched.wake w true)) q

let waiters t = List.length (List.filter Sched.waker_live t.queue)
