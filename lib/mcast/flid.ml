module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Multicast = Mcc_net.Multicast
module Meter = Mcc_util.Meter
module Series = Mcc_util.Series
module Prng = Mcc_util.Prng
module Key = Mcc_delta.Key
module Layered = Mcc_delta.Layered
module Client = Mcc_sigma.Client
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json

type mode = Slot_sender.mode = Plain | Robust

type config = {
  id : int;
  base_group : int;
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;
  width : int;
  mode : mode;
  upgrade_period : int -> int;
  processing_margin : float;
  fec_scheme : Mcc_sigma.Fec.scheme;
}

let default_upgrade_period layering g =
  let r1 = layering.Layering.min_rate_bps in
  let rg = Layering.cumulative_rate layering ~level:g in
  max 2 (int_of_float (ceil (rg /. r1)))

let make_config ?(packet_size = 576) ?(width = Key.default_width)
    ?upgrade_period ?(processing_margin = 0.9)
    ?(fec_scheme = Mcc_sigma.Fec.Repetition 2) ~id ~base_group ~layering
    ~slot_duration ~mode () =
  if slot_duration <= 0. then invalid_arg "Flid.make_config: slot_duration";
  if packet_size <= 0 then invalid_arg "Flid.make_config: packet_size";
  let upgrade_period =
    match upgrade_period with
    | Some f -> f
    | None -> default_upgrade_period layering
  in
  {
    id;
    base_group;
    layering;
    slot_duration;
    packet_size;
    width;
    mode;
    upgrade_period;
    processing_margin;
    fec_scheme;
  }

let configure ~id ~base_group ~layering ~slot_duration ~mode =
  make_config ~id ~base_group ~layering ~slot_duration ~mode ()

let default_slot = function Plain -> 0.5 | Robust -> 0.25
let group_addr config g = config.base_group + g - 1

type Payload.t +=
  | Data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      upgrade_mask : int;
    }

let () =
  Payload.register_pp (fun fmt -> function
    | Data { session; group; slot; seq; last; _ } ->
        Format.fprintf fmt "flid s%d g%d slot%d #%d%s" session group slot seq
          (if last then " last" else "");
        true
    | _ -> false)

(* ----------------------------------------------------------------- *)
(* Sender                                                            *)
(* ----------------------------------------------------------------- *)

type sender = Layered.sender Slot_sender.t

let sender_session config =
  { Slot_sender.id = config.id; base_group = config.base_group;
    layering = config.layering; slot_duration = config.slot_duration;
    packet_size = config.packet_size; upgrade_period = config.upgrade_period }

let sender_start ?at topo ~node ~prng config =
  Slot_sender.start ?at topo ~node ~prng
    ~rate:(fun g -> Layering.layer_rate config.layering ~group:g)
    ~repair_fraction:0. (sender_session config)
    (Slot_sender.xor (module Layered) config.mode ~width:config.width
       ~fec:config.fec_scheme ~payload:(fun d ->
         Data
           { session = config.id; group = d.group; slot = d.slot; seq = d.seq;
             last = d.last; upgrade_mask = d.mask }))

let sender_stats = Slot_sender.stats
let sender_stop = Slot_sender.stop

let sender_keys_for_slot s ~slot =
  Option.map Layered.sender_keys (Slot_sender.keys_for_slot s ~slot)

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

(* An adversary is a pair of closures: whether the receiver misbehaves
   at a given instant, and — in Robust mode — what it actually submits
   to its edge router in place of the honest subscription.  Everything a
   strategy can use (entitled keys, the session's group addresses, a
   fresh-key draw from the receiver's own PRNG, past honest submissions)
   travels in the context, so strategies stay pure data from the
   receiver's point of view. *)

type submission = { sub_slot : int; sub_pairs : (int * Key.t) list }

type adv_ctx = {
  actx_time : float;
  actx_slot : int;  (* the guarded slot being subscribed (s + 2) *)
  actx_entitled : (int * Key.t) list;  (* (group addr, key): honestly earned *)
  actx_groups : int list;  (* every group address of the session *)
  actx_fresh_key : unit -> Key.t;
  actx_history : submission list;  (* past honest submissions, newest first *)
}

type adversary = {
  adv_label : string;
  adv_active : time:float -> bool;
  adv_submit : adv_ctx -> submission list;
}

type behavior = Well_behaved | Inflate_after of float | Adversarial of adversary

(* Membership and series plumbing shared by every receiver of this
   library.  A receiver has a SIGMA client exactly when it runs in
   Robust mode; without one it drives membership over plain IGMP. *)

let attach ?(at = 0.) topo ~host client ~groups on_data =
  List.iter (fun group -> Node.subscribe_local host ~group on_data) groups;
  let group = List.hd groups in
  Sim.post (Topology.sim topo) ~at (fun () ->
      match client with
      | Some client -> Client.session_join client ~group
      | None -> Multicast.host_join topo ~host ~group)

let depart topo ~host client ~groups =
  match client with
  | Some client when groups <> [] -> Client.unsubscribe client ~groups
  | Some _ | None ->
      List.iter (fun group -> Multicast.host_leave topo ~host ~group) groups

let sample_series ~prefix ~id ~host meter gauges =
  if Timeseries.enabled () then begin
    let name suffix =
      Printf.sprintf "%s.s%d.h%d.%s" prefix id host.Node.id suffix
    in
    Timeseries.sample_rate ~scale:0.008 (name "goodput_kbps") (fun () ->
        float_of_int (Meter.total_bytes meter));
    List.iter
      (fun (suffix, gauge) -> Timeseries.sample_gauge (name suffix) gauge)
      gauges
  end

type group_slot_rec = {
  mutable count : int;
  mutable last_seq : int;  (** seq of the flagged last packet; -1 until seen *)
  mutable marked : int;
      (** ECN-marked arrivals: trusted edge routers scrub their DELTA
          components *)
}

type slot_rec = {
  per_group : group_slot_rec array;
  delta_recv : Layered.receiver option;
  mutable mask : int;
}

type verdict = {
  signal : bool;
  desired : int;
  may_upgrade : bool;
  ceiling : int;
}

type 's law = {
  name : string;
  marks_lost : bool;
  judge :
    's -> slot_rec -> level:int -> effective:int -> any_lost:bool -> verdict;
  shed : 's -> level:int -> unit;
  settle : 's -> int -> unit;
  attrs : 's -> (string * Json.t) list;
  gauges : (string * ('s -> float)) list;
}

type 's chassis = {
  r_config : config;
  r_topo : Topology.t;
  r_host : Node.t;
  r_behavior : behavior;
  r_prng : Prng.t;
  r_meter : Meter.t;
  r_series : Series.t;
  r_law : 's law;
  r_state : 's;
  r_slots_metric : string;
  r_levels_metric : string;
  r_component : string;
  mutable r_level : int;
  r_active_since : int array;  (* first slot each group is evaluated for *)
  r_clock : slot_rec Slot_clock.t;
  mutable r_congestions : int;
  r_client : Client.t option;
  mutable r_misbehaving : bool;
  mutable r_joined_all : bool;
  mutable r_history : submission list;
      (** honest (slot, pairs) submissions, newest first, bounded: what
          a colluder copies and what a stale-replay adversary mines *)
  mutable r_collude_source : 's chassis option;
      (** when set, this receiver replays that receiver's submissions
          instead of reconstructing keys itself (paper Section 4.2) *)
}

type receiver = unit chassis

let law_state r = r.r_state
let receiver_meter r = r.r_meter
let receiver_level r = r.r_level
let level_series r = r.r_series
let congestion_events r = r.r_congestions
let receiver_stop r = Slot_clock.stop r.r_clock

let receiver_leave r =
  if not (Slot_clock.stopped r.r_clock) then begin
    depart r.r_topo ~host:r.r_host r.r_client
      ~groups:
        (List.init (max 0 r.r_level) (fun i -> group_addr r.r_config (i + 1)));
    receiver_stop r
  end

let record_level r =
  let time = Sim.now (Topology.sim r.r_topo) in
  Series.add r.r_series ~time ~value:(float_of_int r.r_level);
  Metrics.tick r.r_levels_metric;
  if Tracer.enabled () then
    Tracer.emit ~sim_time:time ~component:r.r_component ~event:"level"
      (fun () ->
        ("host", Json.Int r.r_host.Node.id)
        :: ("level", Json.Int r.r_level)
        :: r.r_law.attrs r.r_state)

let[@hot] effective_level r slot =
  Layering.effective_level r.r_active_since ~level:r.r_level slot

let group_lost ~marks_lost rec_ g =
  let gs = rec_.per_group.(g - 1) in
  if gs.count = 0 then true
  else if marks_lost && gs.marked > 0 then true
  else gs.last_seq < 0 || gs.count < gs.last_seq + 1

let random_key r = Key.nonce r.r_prng ~width:r.r_config.width

(* Inflation guesses: claim every group of the session, drawing a random
   key for each one the receiver is not eligible for.  This is the single
   implementation of the paper's Figure 1 misbehaviour; both the legacy
   [Inflate_after] behaviour and the attack subsystem's strategies build
   on it. *)
let inflation_guesses ctx =
  let covered = List.map fst ctx.actx_entitled in
  List.filter_map
    (fun addr ->
      if List.mem addr covered then None else Some (addr, ctx.actx_fresh_key ()))
    ctx.actx_groups

let inflation_adversary ~at =
  {
    adv_label = "inflate";
    adv_active = (fun ~time -> time >= at);
    adv_submit =
      (fun ctx ->
        [
          {
            sub_slot = ctx.actx_slot;
            sub_pairs = ctx.actx_entitled @ inflation_guesses ctx;
          };
        ]);
  }

let subscribe_robust r ~slot ~entitled_pairs =
  match r.r_client with
  | None -> ()
  | Some client ->
      let config = r.r_config in
      let entitled =
        List.map (fun (g, k) -> (group_addr config g, k)) entitled_pairs
      in
      r.r_history <-
        { sub_slot = slot; sub_pairs = entitled }
        :: List.filteri (fun i _ -> i < 15) r.r_history;
      let submissions =
        match r.r_behavior with
        | Adversarial a when r.r_misbehaving ->
            let ctx =
              {
                actx_time = Sim.now (Topology.sim r.r_topo);
                actx_slot = slot;
                actx_entitled = entitled;
                actx_groups =
                  List.init config.layering.Layering.groups (fun i ->
                      group_addr config (i + 1));
                actx_fresh_key = (fun () -> random_key r);
                actx_history = r.r_history;
              }
            in
            a.adv_submit ctx
        | Adversarial _ | Well_behaved | Inflate_after _ ->
            [ { sub_slot = slot; sub_pairs = entitled } ]
      in
      List.iter
        (fun { sub_slot; sub_pairs } ->
          if sub_pairs <> [] then
            Client.subscribe client ~slot:sub_slot ~pairs:sub_pairs)
        submissions

let plain_inflate r =
  if not r.r_joined_all then begin
    r.r_joined_all <- true;
    let config = r.r_config in
    let n = config.layering.Layering.groups in
    for g = 1 to n do
      Multicast.host_join r.r_topo ~host:r.r_host ~group:(group_addr config g)
    done;
    r.r_level <- n;
    record_level r
  end

(* IGMP membership follows the law's desired level: any number of
   levels down at once, one level up — and only from a fully effective
   subscription. *)
let apply_plain r slot ~effective v =
  let config = r.r_config in
  if v.desired < r.r_level then begin
    for g = v.desired + 1 to r.r_level do
      Multicast.host_leave r.r_topo ~host:r.r_host ~group:(group_addr config g);
      r.r_active_since.(g - 1) <- max_int
    done;
    (* A pulse adversary that went quiet resumes honest behaviour:
       once a group is shed it must be able to re-inflate later. *)
    r.r_joined_all <- false;
    r.r_level <- v.desired;
    record_level r
  end
  else if v.desired > r.r_level && effective = r.r_level then begin
    let g = r.r_level + 1 in
    Multicast.host_join r.r_topo ~host:r.r_host ~group:(group_addr config g);
    r.r_active_since.(g - 1) <- slot + 2;
    r.r_level <- g;
    record_level r
  end

(* The level follows the keys DELTA lets the receiver reconstruct: the
   slot is congested for the key path when the law saw a congestion
   signal or wants a lower level, and a congested slot lands no higher
   than the law's ceiling. *)
let apply_robust r slot rec_ ~effective ~lost v =
  let config = r.r_config in
  match rec_.delta_recv with
  | None -> ()
  | Some delta ->
      let congested = v.signal || v.desired < r.r_level in
      let upgrade_to j =
        v.may_upgrade
        && j <= config.layering.Layering.groups
        && Layering.mask_bit rec_.mask j
      in
      let outcome =
        Layered.slot_end delta ~level:effective ~congested ~lost ~upgrade_to
      in
      let new_level =
        if congested then min outcome.Layered.next_level v.ceiling
        else if effective = r.r_level then outcome.Layered.next_level
        else r.r_level
      in
      (* Keys never exceed the outcome's level; a ceiling below it drops
         the keys above the level the receiver settles on. *)
      let keys =
        if new_level >= outcome.Layered.next_level then outcome.Layered.keys
        else
          List.filter (fun (g, _) -> g <= max new_level 1) outcome.Layered.keys
      in
      subscribe_robust r ~slot:(slot + 2) ~entitled_pairs:keys;
      if new_level < r.r_level then begin
        if not r.r_misbehaving then
          depart r.r_topo ~host:r.r_host r.r_client
            ~groups:
              (List.init (r.r_level - max 0 new_level) (fun i ->
                   group_addr config (max 0 new_level + i + 1)));
        for g = max 1 new_level + 1 to r.r_level do
          r.r_active_since.(g - 1) <- max_int
        done;
        r.r_law.shed r.r_state ~level:new_level
      end;
      if new_level > r.r_level then
        r.r_active_since.(new_level - 1) <- slot + 2;
      if new_level = 0 then begin
        (* Even the minimal group's key chain broke: re-admit through
           SIGMA's session-join once the current grant lapses. *)
        (match r.r_client with
        | Some client -> Client.session_join client ~group:(group_addr config 1)
        | None -> ());
        r.r_active_since.(0) <- slot + 3;
        if r.r_level <> 1 then begin
          r.r_level <- 1;
          record_level r
        end
      end
      else if new_level <> r.r_level then begin
        r.r_level <- new_level;
        record_level r
      end;
      (* A silent minimal group while nominally subscribed means the
         grant lapsed (e.g. during an outage): keep knocking. *)
      if rec_.per_group.(0).count = 0 && r.r_level = 1 then
        match r.r_client with
        | Some client -> Client.session_join client ~group:(group_addr config 1)
        | None -> ()

let set_colluder r ~source = r.r_collude_source <- Some source
let receiver_history r = r.r_history

(* A colluding receiver does not reconstruct anything: it replays, slot
   for slot, whatever its accomplice last submitted. *)
let collude r source =
  match (r.r_client, source.r_history) with
  | Some client, { sub_slot = slot; sub_pairs = pairs } :: _ when pairs <> [] ->
      Client.subscribe client ~slot ~pairs
  | _, _ -> ()

let eval_slot r slot rec_ =
  Metrics.tick r.r_slots_metric;
  let level_before = r.r_level in
  (match r.r_behavior with
  | Adversarial a ->
      r.r_misbehaving <- a.adv_active ~time:(Sim.now (Topology.sim r.r_topo))
  | Inflate_after _ (* normalised to [Adversarial] at start *) | Well_behaved
    -> ());
  let effective = effective_level r slot in
  let lost g =
    g <= effective && group_lost ~marks_lost:r.r_law.marks_lost rec_ g
  in
  let verdict =
    if effective < 1 then None
    else begin
      let any_lost = List.exists lost (List.init effective (fun i -> i + 1)) in
      let v =
        r.r_law.judge r.r_state rec_ ~level:r.r_level ~effective ~any_lost
      in
      if v.signal then r.r_congestions <- r.r_congestions + 1;
      Some v
    end
  in
  (match (r.r_config.mode, verdict) with
  | Plain, _ when r.r_misbehaving -> plain_inflate r
  | Plain, Some v -> apply_plain r slot ~effective v
  | Robust, Some v -> apply_robust r slot rec_ ~effective ~lost v
  | (Plain | Robust), None -> ());
  (match (r.r_config.mode, r.r_collude_source) with
  | Robust, Some source -> collude r source
  | (Plain | Robust), _ -> ());
  r.r_law.settle r.r_state (r.r_level - level_before)

let[@hot] on_data r pkt =
  match pkt.Packet.payload with
  | Data { session; group; slot; seq; last; upgrade_mask }
    when session = r.r_config.id ->
      let now = Sim.now (Topology.sim r.r_topo) in
      Meter.record r.r_meter ~time:now ~bytes:pkt.Packet.size;
      let clock = r.r_clock in
      if Slot_clock.sync clock ~slot && r.r_active_since.(0) = max_int then
        r.r_active_since.(0) <- slot + 1;
      Slot_clock.close_lane clock ~lane:(group - 1) ~slot ~last;
      if slot >= Slot_clock.next_eval clock then begin
        let rec_ = Slot_clock.slot_rec clock slot in
        let gs = rec_.per_group.(group - 1) in
        gs.count <- gs.count + 1;
        if pkt.Packet.ecn then gs.marked <- gs.marked + 1;
        if last then gs.last_seq <- seq;
        rec_.mask <- rec_.mask lor upgrade_mask;
        match rec_.delta_recv with
        | Some dr when pkt.Packet.delta_component <> Packet.no_field ->
            Layered.on_packet dr ~group ~component:pkt.Packet.delta_component
              ~decrease:pkt.Packet.delta_decrease
        | Some _ | None -> ()
      end;
      Slot_clock.try_eval clock
  | _ -> ()

let chassis_start ?(at = 0.) ?(behavior = Well_behaved) ~law ~state topo ~host
    ~prng config =
  (* The legacy constructor is sugar for the canonical inflation
     adversary, so the Figure 1 misbehaviour has a single
     implementation. *)
  let behavior =
    match behavior with
    | Inflate_after at -> Adversarial (inflation_adversary ~at)
    | (Well_behaved | Adversarial _) as b -> b
  in
  let n = config.layering.Layering.groups in
  let fresh () =
    {
      per_group =
        Array.init n (fun _ -> { count = 0; last_seq = -1; marked = 0 });
      delta_recv =
        (match config.mode with
        | Robust -> Some (Layered.receiver_create ~groups:n)
        | Plain -> None);
      mask = 0;
    }
  in
  let r =
    {
      r_config = config;
      r_topo = topo;
      r_host = host;
      r_behavior = behavior;
      r_prng = prng;
      r_meter = Meter.create ();
      r_series = Series.create ();
      r_law = law;
      r_state = state;
      r_slots_metric = law.name ^ ".slots";
      r_levels_metric = law.name ^ ".level_changes";
      r_component = law.name ^ ".receiver";
      r_level = 1;
      r_active_since = Array.make n max_int;
      r_clock =
        Slot_clock.create (Topology.sim topo)
          ~slot_duration:config.slot_duration
          ~processing_margin:config.processing_margin ~lanes:n ~fresh;
      r_congestions = 0;
      r_client =
        (match config.mode with
        | Robust -> Some (Client.create ~width:config.width topo ~host)
        | Plain -> None);
      r_misbehaving = false;
      r_joined_all = false;
      r_history = [];
      r_collude_source = None;
    }
  in
  Slot_clock.bind r.r_clock ~span:(effective_level r) ~eval:(eval_slot r);
  (* Per-receiver trajectories (no-op unless sampling is on): goodput in
     kbit/s, the current subscription level and the law's own gauges —
     the curves of the paper's attack/recovery figures. *)
  sample_series ~prefix:law.name ~id:config.id ~host r.r_meter
    (("level", fun () -> float_of_int r.r_level)
    :: List.map (fun (suffix, gauge) -> (suffix, fun () -> gauge state))
         law.gauges);
  attach ~at topo ~host r.r_client
    ~groups:(List.init n (fun i -> group_addr config (i + 1)))
    (on_data r);
  r

(* FLID-DL's rule (paper Section 3.1.1): a slot that lost any packet of
   the effective subscription — ECN-marked packets included, their DELTA
   components being scrubbed — drops the top layer; a clean slot adds a
   layer when the mask authorizes it.  On the key path a congested slot
   may keep its level through the increase key when the loss is
   confined to the top group (the contradiction resolution), hence no
   ceiling. *)
let flid_law =
  {
    name = "flid";
    marks_lost = true;
    judge =
      (fun () rec_ ~level ~effective ~any_lost ->
        if any_lost then Metrics.tick "flid.inferred_losses";
        let desired =
          if any_lost then max 1 (level - 1)
          else if
            effective = level
            && level < Array.length rec_.per_group
            && Layering.mask_bit rec_.mask (level + 1)
          then level + 1
          else level
        in
        {
          signal = any_lost;
          desired;
          may_upgrade = effective = level;
          ceiling = max_int;
        });
    shed = (fun () ~level:_ -> ());
    settle =
      (fun () delta ->
        if delta > 0 then Metrics.tick "flid.joins" ~by:delta
        else if delta < 0 then Metrics.tick "flid.leaves" ~by:(-delta));
    attrs = (fun () -> []);
    gauges = [];
  }

let receiver_start ?at ?behavior topo ~host ~prng config =
  chassis_start ?at ?behavior ~law:flid_law ~state:() topo ~host ~prng config
