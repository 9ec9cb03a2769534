module Net = Rrq_net.Net
module Codec = Rrq_util.Codec
module Tm = Rrq_txn.Tm
module Node_log = Rrq_txn.Node_log
module Kvdb = Rrq_kvdb.Kvdb

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

(* The client's durable intermediate-I/O log: a KV store on a node log of
   the client's own, one key per (rid, seq) holding its (prompt, input),
   replayed to answer repeated prompts after a server-side abort and
   re-execution. Each entry is durable before its prompt is answered, so
   a conversation's entries are seq 1, 2, ... with no gap. *)
type display = { mutable fresh_asks : int }

let entry_key rid seq = string_of_int seq ^ ":" ^ rid

let encode_entry entry =
  let e = Codec.encoder () in
  Codec.pair Codec.string Codec.string e entry;
  Codec.finish e

let decode_entry v = Codec.get_pair Codec.get_string Codec.get_string (Codec.decoder v)

let install_display node ~user =
  let log = Node_log.open_log (Net.disk node) ~name:"display" in
  let tm = Tm.attach log ~name:"display" in
  let kv = Kvdb.attach log ~name:"kv@display" in
  let st = { fresh_asks = 0 } in
  (* One transaction per prompt: a replay only reads; a fresh answer is
     written, and a divergence drops the rest of the old conversation
     (the entries after [seq]) in the same commit. *)
  let answer id ~rid ~seq ~prompt =
    match Option.map decode_entry (Kvdb.get kv id (entry_key rid seq)) with
    | Some (logged_prompt, input) when logged_prompt = prompt ->
      input (* replay: the user never sees the prompt again *)
    | found ->
      st.fresh_asks <- st.fresh_asks + 1;
      let input = user ~rid ~seq ~prompt in
      if found <> None then begin
        let rec drop sq =
          let key = entry_key rid sq in
          if Kvdb.get kv id key <> None then begin
            Kvdb.delete kv id key;
            drop (sq + 1)
          end
        in
        drop (seq + 1)
      end;
      Kvdb.put kv id (entry_key rid seq) (encode_entry (prompt, input));
      input
  in
  Net.add_service node "display" (fun msg ->
      match msg with
      | D_ask { rid; seq; prompt } -> begin
        let txn = Tm.begin_txn tm in
        Tm.join txn (Kvdb.participant kv);
        match answer (Tm.txn_id txn) ~rid ~seq ~prompt with
        | input -> begin
          match Tm.commit tm txn with
          | Tm.Committed -> D_input input
          | Tm.Aborted -> failwith "display: commit refused"
        end
        | exception e ->
          Tm.abort tm txn;
          raise e
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
