type 'a t = {
  values : 'a Queue.t;
  waiters : 'a option Sched.waker Queue.t;
}

let create () = { values = Queue.create (); waiters = Queue.create () }

let rec send t v =
  if Queue.is_empty t.waiters then Queue.push v t.values
  else begin
    let w = Queue.pop t.waiters in
    (* A waiter whose fiber was killed refuses delivery; re-offer the value. *)
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

(* A timed-out waiter leaves the queue at once, rather than at the next
   [send], so a channel polled with timeouts stays bounded. *)
let drop_waiter t w =
  let rest = Queue.create () in
  Queue.iter (fun w' -> if w' != w then Queue.push w' rest) t.waiters;
  Queue.clear t.waiters;
  Queue.transfer rest t.waiters

let recv_timeout t d =
  match Queue.take_opt t.values with
  | Some v -> Some v
  | None ->
    Sched.suspend (fun _ w ->
        Queue.push w t.waiters;
        Sched.timeout w d (fun () -> if Sched.wake w None then drop_waiter t w))

let length t = Queue.length t.values
let clear t = Queue.clear t.values
