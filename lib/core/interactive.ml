module Net = Rrq_net.Net
module Wal = Rrq_wal.Wal
module Codec = Rrq_util.Codec
module Tm = Rrq_txn.Tm

(* ---- pseudo-conversational (8.2) ------------------------------------- *)

type turn = Intermediate of { output : string; scratch : string } | Final of string

let pseudo_server site ~req_queue ?threads handler =
  Server.start site ~req_queue ?threads ~name:("conv:" ^ req_queue)
    (fun site txn env ->
      match handler site txn env with
      | Final body -> Server.Reply body
      | Intermediate { output; scratch } ->
        Server.Reply_env
          {
            (Envelope.reply_to env ~body:output) with
            Envelope.kind = "intermediate";
            scratch;
            step = env.Envelope.step + 1;
          })

(* The legs a conversation may take before the client gives up. *)
let max_turns = 100

let pseudo_client clerk ~rid ~body ~respond =
  ignore (Clerk.send clerk ~rid body);
  let rec turn i =
    if i > max_turns then None
    else begin
      match Clerk.receive clerk () with
      | None -> turn i (* keep waiting for this leg's output *)
      | Some r when r.Envelope.kind = "intermediate" ->
        let input = respond ~step:r.Envelope.step ~output:r.Envelope.body in
        ignore
          (Clerk.send clerk
             ~rid:(Printf.sprintf "%s/%d" rid r.Envelope.step)
             ~scratch:r.Envelope.scratch ~step:r.Envelope.step input);
        turn (i + 1)
      | Some final -> Some final
    end
  in
  turn 0

(* ---- single-transaction conversations (8.3) --------------------------- *)

type Net.payload +=
  | D_ask of { rid : string; seq : int; prompt : string }
  | D_input of string

(* The client's durable intermediate-I/O log: (rid, seq, prompt, input)
   tuples, replayed to answer repeated prompts after a server-side abort
   and re-execution. A divergence drops entries, which a log of appends
   cannot say: the display checkpoints its live entries then, and
   whenever the log outgrows them by the node log's byte rule. *)
type display = {
  entries : (string * int, string * string) Hashtbl.t; (* (rid,seq) -> (prompt,input) *)
  mutable fresh_asks : int;
}

let encode_entry e (rid, seq) (prompt, input) =
  Codec.string e rid;
  Codec.int e seq;
  Codec.string e prompt;
  Codec.string e input

let decode_entry entries d =
  let rid = Codec.get_string d in
  let seq = Codec.get_int d in
  let prompt = Codec.get_string d in
  let input = Codec.get_string d in
  Hashtbl.replace entries (rid, seq) (prompt, input)

let install_display node ~user =
  let wal, recovered = Wal.open_log (Net.disk node) ~name:"display" in
  let entries = Hashtbl.create 32 in
  Option.iter
    (fun snap ->
      let d = Codec.decoder snap in
      for _ = 1 to Codec.get_int d do
        decode_entry entries d
      done)
    recovered.Wal.snapshot;
  List.iter (fun r -> decode_entry entries (Codec.decoder r)) recovered.Wal.records;
  let st = { entries; fresh_asks = 0 } in
  let scratch = Codec.encoder () in
  (* A snapshot is the live entries, counted. *)
  let checkpoint () =
    Wal.checkpoint wal scratch (fun e ->
        Codec.int e (Hashtbl.length entries);
        Hashtbl.iter (encode_entry e) entries)
  in
  Net.add_service node "display" (fun msg ->
      match msg with
      | D_ask { rid; seq; prompt } -> begin
        match Hashtbl.find_opt st.entries (rid, seq) with
        | Some (logged_prompt, input) when logged_prompt = prompt ->
          D_input input (* replay: the user never sees the prompt again *)
        | found ->
          st.fresh_asks <- st.fresh_asks + 1;
          let input = user ~rid ~seq ~prompt in
          (match found with
          | Some _ ->
            (* Divergence: the rest of the old conversation no longer
               applies. Drop it, here and durably. *)
            Hashtbl.filter_map_inplace
              (fun (r, sq) v -> if r = rid && sq >= seq then None else Some v)
              st.entries;
            Hashtbl.replace st.entries (rid, seq) (prompt, input);
            checkpoint ()
          | None ->
            Hashtbl.replace st.entries (rid, seq) (prompt, input);
            Codec.reset scratch;
            encode_entry scratch (rid, seq) (prompt, input);
            Wal.append_enc wal scratch;
            Wal.sync wal;
            if Rrq_txn.Node_log.checkpoint_due wal then checkpoint ());
          D_input input
      end
      | _ -> raise (Invalid_argument "display service: unexpected message"));
  st

let display_asks st = st.fresh_asks

type console = {
  c_site : Site.t;
  c_rid : string;
  c_display : string;
  mutable seq : int;
}

let console site env ~display =
  { c_site = site; c_rid = env.Envelope.rid; c_display = display; seq = 0 }

let ask c prompt =
  c.seq <- c.seq + 1;
  match
    Net.call (Site.node c.c_site) ~timeout:5.0 ~dst:c.c_display
      ~service:"display"
      (D_ask { rid = c.c_rid; seq = c.seq; prompt })
  with
  | D_input s -> s
  | _ -> failwith "display: unexpected reply"
  | exception (Net.Rpc_timeout | Net.Service_error _) ->
    failwith "intermediate input unavailable"
