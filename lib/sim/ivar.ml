type 'a t = {
  mutable value : 'a option;
  mutable readers : 'a option Sched.waker list;
}

let create () = { value = None; readers = [] }

let fill t v =
  match t.value with
  | Some _ -> ()
  | None ->
    t.value <- Some v;
    let readers = t.readers in
    t.readers <- [];
    List.iter (fun w -> ignore (Sched.wake w (Some v))) readers

let read t =
  match t.value with
  | Some v -> v
  | None -> begin
    match Sched.suspend (fun _ w -> t.readers <- w :: t.readers) with
    | Some v -> v
    | None -> assert false
  end

let read_timeout t d =
  match t.value with
  | Some v -> Some v
  | None ->
    Sched.suspend (fun _ w ->
        t.readers <- w :: t.readers;
        Sched.timeout w d (fun () -> ignore (Sched.wake w None)))
