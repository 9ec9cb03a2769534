type 'a t = {
  values : 'a Queue.t;
  waiters : 'a option Sched.waker Queue.t;
}

let create () = { values = Queue.create (); waiters = Queue.create () }

let rec send t v =
  if Queue.is_empty t.waiters then Queue.push v t.values
  else begin
    let w = Queue.pop t.waiters in
    (* A dead or timed-out waiter refuses delivery; re-offer the value. *)
    if not (Sched.wake w (Some v)) then send t v
  end

let recv t =
  match Queue.take_opt t.values with
  | Some v -> v
  | None -> begin
    match Sched.suspend (fun _sched w -> Queue.push w t.waiters) with
    | Some v -> v
    | None -> assert false (* no timer was armed for this waker *)
  end

let recv_timeout t d =
  match Queue.take_opt t.values with
  | Some v -> Some v
  | None ->
    Sched.suspend (fun sched w ->
        Queue.push w t.waiters;
        Sched.at sched (Sched.now sched +. d) (fun () ->
            ignore (Sched.wake w None)))

let length t = Queue.length t.values
let clear t = Queue.clear t.values
