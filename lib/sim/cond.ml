type t = { mutable queue : bool Sched.waker list }

let create () = { queue = [] }

let wait t =
  let ok = Sched.suspend (fun _ w -> t.queue <- t.queue @ [ w ]) in
  assert ok

(* Block with a timeout; the thunk that wins drops [w] from every queue it
   sits in, so a cond polled with timeouts and never signalled does not
   collect dead wakers. *)
let wait_timed conds d =
  Sched.suspend (fun _ w ->
      List.iter (fun c -> c.queue <- c.queue @ [ w ]) conds;
      Sched.timeout w d (fun () ->
          if Sched.wake w false then
            List.iter (fun c -> c.queue <- List.filter (( != ) w) c.queue) conds))

let wait_timeout t d = wait_timed [ t ] d

let wait_any ?timeout conds =
  match timeout with
  | Some d -> wait_timed conds d
  | None ->
    (* The same one-shot waker sits in every queue; whichever is signalled
       first wins, the rest find it dead and skip it. *)
    Sched.suspend (fun _ w -> List.iter (fun c -> c.queue <- c.queue @ [ w ]) conds)

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
