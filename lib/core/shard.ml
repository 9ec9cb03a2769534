module Net = Rrq_net.Net
module Crashpoint = Rrq_sim.Crashpoint
module Qm = Rrq_qm.Qm

(* ---- the shard map ---------------------------------------------------- *)

type map = {
  version : int;
  shards : string list;
  backups : (string * string list) list;
  sharded_queues : string list;
  pins : (string * string) list;
}

let key_for m ~queue ~registrant =
  if List.mem queue m.sharded_queues then queue ^ "#" ^ registrant else queue

let reply_queue = Site.reply_queue
let reply_client = Site.reply_client

(* FNV-1a placement by the key's bytes, blind to pins. *)
let hash_owner m key =
  match m.shards with
  | [] -> invalid_arg "Shard.owner: empty shard list"
  | [ s ] -> s
  | shards ->
    let n = List.length shards in
    let h = Rrq_util.Checksum.fnv1a64 key in
    let idx =
      Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int n))
    in
    List.nth shards idx

(* An unpinned reply queue follows its client's request key, hashed as the
   key itself would be but blind to the pins on it; the map's first
   sharded queue is the request queue. Only that case allocates. *)
let owner m key =
  match List.assoc_opt key m.pins with
  | Some s -> s
  | None -> begin
    match m.sharded_queues with
    | [] -> hash_owner m key
    | q :: _ -> begin
      match reply_client key with
      | Some client -> hash_owner m (q ^ "#" ^ client)
      | None -> hash_owner m key
    end
  end

let shard_candidates m s =
  s :: (match List.assoc_opt s m.backups with Some b -> b | None -> [])

let candidates m key = shard_candidates m (owner m key)

let all_nodes m =
  m.shards @ List.concat_map (fun (_, b) -> b) m.backups

(* ---- wire protocol ---------------------------------------------------- *)

type reg_view = {
  rv_kind : [ `Enqueue | `Dequeue ];
  rv_tag : string;
  rv_eid : int64;
  rv_element : Site.elem_view option;
}

type Net.payload +=
  | Sh_routed of { version : int; hops : int; inner : Net.payload }
  | Sh_reply of { newer : map option; inner : Net.payload }
  | Sh_install of map
  | Sh_get_map
  | Sh_map of map
  | Sh_pull_reg of { queue : string; registrant : string }
  | Sh_reg of reg_view option

(* ---- the per-repository router ---------------------------------------- *)

type t = {
  sh_site : Site.t;
  mutable sh_map : map;
  untag_forward_bug : bool;
}

let site t = t.sh_site

(* The queue/registrant pair that decides where an operation lives. Keyless
   operations (kill by eid) are served wherever the clerk sent them. *)
let op_target = function
  | Site.Q_register { queue; registrant; _ }
  | Site.Q_enqueue { queue; registrant; _ }
  | Site.Q_dequeue { queue; registrant; _ }
  | Site.Q_read_last { queue; registrant }
  | Site.Q_deregister { queue; registrant } -> Some (queue, registrant)
  | Site.Q_create_queue queue | Site.Q_fence queue -> Some (queue, "")
  | _ -> None

(* What duplicate-suppression evidence an operation would need from a peer
   repository, were its registrant unknown (or mismatched) here. *)
let pull_intent = function
  | Site.Q_register { queue; registrant; _ } -> Some (queue, registrant, `Register)
  | Site.Q_enqueue { queue; registrant; tag = Some tg; _ } ->
    Some (queue, registrant, `Enqueue tg)
  | Site.Q_dequeue { queue; registrant; tag = Some tg; _ } ->
    Some (queue, registrant, `Dequeue (Tag.rid_piece tg))
  | _ -> None

(* The designed misroute-during-map-change anomaly: a forwarder that drops
   the registration tag strips the retried operation of the very identity
   the new owner's duplicate suppression (and registration pull) key on. *)
let strip_tag = function
  | Site.Q_enqueue { registrant; queue; tag = _; props; priority; body } ->
    Site.Q_enqueue { registrant; queue; tag = None; props; priority; body }
  | Site.Q_dequeue { registrant; queue; tag = _; filter; timeout } ->
    Site.Q_dequeue { registrant; queue; tag = None; filter; timeout }
  | op -> op

(* Ask every other shard for its last tagged operation of (registrant,
   queue). All answers matter: records for the same registrant can exist on
   several repositories after successive map changes, and suppression must
   match against any of them. A shard none of whose candidates answered
   makes the result unusable — failing the operation is the only safe
   outcome (exactly-once over availability). *)
let pull t ~queue ~registrant =
  let site = t.sh_site in
  let m = t.sh_map in
  let self s = Site.is_local_name site s in
  let results = ref [] in
  let unreachable = ref None in
  List.iter
    (fun shard ->
      if not (self shard) then begin
        let answered =
          List.exists
            (fun dst ->
              if self dst then false
              else
                match
                  Net.call (Site.node site) ~timeout:1.0 ~dst ~service:"shard"
                    (Sh_pull_reg { queue; registrant })
                with
                | Sh_reg (Some rv) ->
                  results := rv :: !results;
                  true
                | Sh_reg None -> true
                | _ -> false
                | exception (Net.Rpc_timeout | Net.Service_error _) -> false)
            (shard_candidates m shard)
        in
        if (not answered) && !unreachable = None then unreachable := Some shard
      end)
    m.shards;
  (List.rev !results, !unreachable)

(* Serve an operation this repository owns. Before delegating to the plain
   clerk service, a tagged operation on a sharded queue whose local
   registration record is missing or does not carry the operation's tag may
   be a retry whose original landed on another shard under an older map:
   pull the peers' records and suppress against any match. A version-1 map
   has never changed, so ownership never moved and the local record is
   authoritative — no pull. *)
let serve_local t op =
  let site = t.sh_site in
  let m = t.sh_map in
  let suppressed =
    if m.version <= 1 then None
    else
      match pull_intent op with
      | Some (queue, registrant, intent)
        when List.mem queue m.sharded_queues -> begin
        let local = Qm.lookup_registration (Site.qm site) ~queue ~registrant in
        let local_matches =
          match (intent, local) with
          | _, None -> false
          | `Register, Some _ -> true
          | (#Tag.op as op), Some l ->
            Tag.repeats op ~kind:l.Qm.op_kind ~tag:l.Qm.tag
        in
        if local_matches then None
        else begin
          let records, unreachable = pull t ~queue ~registrant in
          let matched =
            List.find_opt
              (fun rv ->
                match intent with
                | `Register -> local = None
                | #Tag.op as op ->
                  Tag.repeats op ~kind:rv.rv_kind ~tag:rv.rv_tag)
              records
          in
          match (matched, unreachable) with
          | Some rv, _ -> begin
            match intent with
            | `Enqueue _ -> Some (Site.R_eid rv.rv_eid)
            | `Dequeue _ -> Some (Site.R_element rv.rv_element)
            | `Register ->
              Some
                (Site.R_registered
                   {
                     last_kind = Some rv.rv_kind;
                     last_tag = Some rv.rv_tag;
                     last_eid = Some rv.rv_eid;
                   })
          end
          | None, Some shard ->
            failwith
              (Printf.sprintf "shard: %s cannot verify %s@%s: %s unreachable"
                 (Site.site_name site) registrant queue shard)
          | None, None -> None
        end
      end
      | _ -> None
  in
  match suppressed with
  | Some reply -> reply
  | None -> Site.clerk_service site op

let dequeue_wait = function
  | Site.Q_dequeue { timeout = Some d; _ } -> d
  | _ -> 0.0

(* The shard-aware ["qm"] service. A routed operation is either served here
   (owner), or relayed one hop to the owner under {e this} repository's map
   — never more than [max_hops] relays, so a ring of stale maps cannot
   bounce a request forever. Replies piggyback the newer map whenever the
   requester's version lags, which is how clerks refresh after a change.
   Un-routed payloads pass straight through to the plain clerk service, so
   non-shard-aware clients keep working against a shard-attached site. *)
let max_hops = 2

let routed_service t msg =
  let site = t.sh_site in
  let name = Site.site_name site in
  match msg with
  | Sh_routed { version; hops; inner } ->
    Crashpoint.reach ("shard.route:" ^ name);
    let m = t.sh_map in
    let newer () = if version < m.version then Some m else None in
    (match op_target inner with
    | None -> Sh_reply { newer = newer (); inner = serve_local t inner }
    | Some (queue, registrant) ->
      let own = owner m (key_for m ~queue ~registrant) in
      if Site.is_local_name site own then
        Sh_reply { newer = newer (); inner = serve_local t inner }
      else begin
        if Rrq_obs.enabled () then begin
          Rrq_obs.Metrics.inc ("shard.forwards:" ^ name);
          if version < m.version then
            Rrq_obs.Metrics.inc ("shard.misroutes:" ^ name);
          Rrq_obs.Trace.emit
            (Rrq_obs.Event.Shard_forward { node = name; owner = own; version })
        end;
        Crashpoint.reach ("shard.forward:" ^ name);
        if hops >= max_hops then
          failwith
            (Printf.sprintf "shard: %s -> %s exceeds forward hop bound %d" name
               own max_hops);
        let inner = if t.untag_forward_bug then strip_tag inner else inner in
        (* The clerk sent this Send here as its request shard, which may
           be its reply shard too: make a lazy Receive logged here
           durable, as executing the Send would have ({!Clerk.send}). *)
        (match inner with
        | Site.Q_enqueue _ ->
          let log = Site.log site in
          Rrq_txn.Node_log.force_upto log (Rrq_txn.Node_log.tail log)
        | _ -> ());
        (* Stay under the requester's own timeout (its base rpc timeout
           plus the dequeue wait), so the relay's answer can still reach
           the clerk instead of racing its retry. *)
        match
          Net.call (Site.node site)
            ~timeout:(0.75 +. dequeue_wait inner)
            ~dst:own ~service:"qm"
            (Sh_routed { version = m.version; hops = hops + 1; inner })
        with
        | Sh_reply { newer = n; inner = r } ->
          Sh_reply
            { newer = (match n with Some _ -> n | None -> newer ()); inner = r }
        | other -> Sh_reply { newer = newer (); inner = other }
        | exception Net.Rpc_timeout ->
          failwith ("shard: forward " ^ name ^ " -> " ^ own ^ " timed out")
      end)
  | other -> Site.clerk_service site other

(* Map distribution and the registration-pull answer. A standby refuses
   pulls: its shipped registration state may lag the primary's, and
   suppression decided on lagged evidence re-admits duplicates. *)
let shard_service t msg =
  let site = t.sh_site in
  let name = Site.site_name site in
  match msg with
  | Sh_install m ->
    Crashpoint.reach ("shard.map_install:" ^ name);
    if m.version > t.sh_map.version then begin
      t.sh_map <- m;
      if Rrq_obs.enabled () then begin
        Rrq_obs.Metrics.inc ("shard.map_installs:" ^ name);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Shard_map_install { node = name; version = m.version })
      end
    end;
    Net.Ack
  | Sh_get_map -> Sh_map t.sh_map
  | Sh_pull_reg { queue; registrant } ->
    if Site.is_standby site then
      failwith ("shard: " ^ name ^ " is a standby")
    else
      Sh_reg
        (Option.map
           (fun (l : Qm.last_op) ->
             {
               rv_kind = l.Qm.op_kind;
               rv_tag = l.Qm.tag;
               rv_eid = l.Qm.op_eid;
               rv_element = Option.map Site.view_of_element l.Qm.element_copy;
             })
           (Qm.lookup_registration (Site.qm site) ~queue ~registrant))
  | _ -> raise (Invalid_argument "shard service: unexpected message")

let attach ?(untag_forward_bug = false) site map =
  let t = { sh_site = site; sh_map = map; untag_forward_bug } in
  Site.set_candidates site (fun dst -> shard_candidates t.sh_map dst);
  Site.on_boot site (fun s ->
      Net.add_service (Site.node s) "qm" (routed_service t);
      Net.add_service (Site.node s) "shard" (shard_service t));
  t

let install t m =
  if m.version > t.sh_map.version then t.sh_map <- m

let install_from node ~shards m =
  List.filter
    (fun dst ->
      match Net.call node ~timeout:1.0 ~dst ~service:"shard" (Sh_install m) with
      | Net.Ack -> true
      | _ -> false
      | exception (Net.Rpc_timeout | Net.Service_error _) -> false)
    shards
