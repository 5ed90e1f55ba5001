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
module Replicated = Mcc_delta.Replicated
module Client = Mcc_sigma.Client
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json

(* ----------------------------------------------------------------- *)
(* Adversaries                                                       *)
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

(* ----------------------------------------------------------------- *)
(* Laws and key schemes                                              *)
(* ----------------------------------------------------------------- *)

type coords = {
  mutable group : int;
  mutable slot : int;
  mutable seq : int;
  mutable last : bool;
  mutable mask : int;
}

type lane_rec = {
  mutable count : int;
  mutable last_seq : int;  (** seq of the flagged last packet; -1 until seen *)
  mutable marked : int;
      (** ECN-marked arrivals: trusted edge routers scrub their DELTA
          components *)
}

type slot_rec = { lanes : lane_rec array; mutable mask : int }

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
  stop : 's -> unit;
  attrs : 's -> (string * Json.t) list;
  gauges : (string * ('s -> float)) list;
}

let count_moves name =
  let joins = name ^ ".joins" and leaves = name ^ ".leaves" in
  fun _ delta ->
    if delta > 0 then Metrics.tick joins ~by:delta
    else if delta < 0 then Metrics.tick leaves ~by:(-delta)

type holding = Cumulative | Single
type outcome = { level : int; keys : (int * Key.t) list }

type 'd scheme = {
  width : int;
  holding : holding;
  read : Payload.t -> coords -> bool;
  evidence : unit -> 'd;
  add : 'd -> coords -> Packet.t -> unit;
  slot_end :
    'd -> slot_rec -> level:int -> effective:int -> lost:(int -> bool) ->
    verdict -> outcome;
  leave_on_rejoin : bool;
  knock : bool;
}

(* Both XOR instantiations carry their DELTA fields in the header
   words. *)
let xor_add on_packet d (c : coords) pkt =
  if pkt.Packet.delta_component <> Packet.no_field then
    on_packet d ~group:c.group ~component:pkt.Packet.delta_component
      ~decrease:pkt.Packet.delta_decrease

(* The slot is congested for the key path when the law saw a congestion
   signal or wants a lower level, and a congested slot lands no higher
   than the law's ceiling.  On a clean slot a receiver whose top group
   is not yet effective keeps its level. *)
let layered ~width ~groups ~read =
  let slot_end delta ev ~level ~effective ~lost v =
    let congested = v.signal || v.desired < level in
    let upgrade_to j =
      v.may_upgrade && j <= groups && Layering.mask_bit ev.mask j
    in
    let o =
      Layered.slot_end delta ~level:effective ~congested ~lost ~upgrade_to
    in
    let next =
      if congested then min o.Layered.next_level v.ceiling
      else if effective = level then o.Layered.next_level
      else level
    in
    (* Keys never exceed the outcome's level; a ceiling below it drops
       the keys above the level the receiver settles on. *)
    let keys =
      if next >= o.Layered.next_level then o.Layered.keys
      else List.filter (fun (g, _) -> g <= max next 1) o.Layered.keys
    in
    { level = next; keys }
  in
  {
    width;
    holding = Cumulative;
    read;
    evidence = (fun () -> Layered.receiver_create ~groups);
    add = xor_add Layered.on_packet;
    slot_end;
    leave_on_rejoin = true;
    knock = true;
  }

let replicated ~width ~groups ~read =
  let slot_end delta ev ~level ~effective:_ ~lost:_ v =
    let o =
      Replicated.slot_end delta ~group:level ~congested:v.signal
        ~upgrade_to:(fun j -> j <= groups && Layering.mask_bit ev.mask j)
    in
    let next = o.Replicated.next_group in
    {
      level = next;
      keys =
        (match o.Replicated.key with
        | Some k when next >= 1 -> [ (next, k) ]
        | Some _ | None -> []);
    }
  in
  {
    width;
    holding = Single;
    read;
    evidence = (fun () -> Replicated.receiver_create ~groups);
    add = xor_add Replicated.on_packet;
    slot_end;
    leave_on_rejoin = false;
    knock = true;
  }

(* ----------------------------------------------------------------- *)
(* Chassis                                                           *)
(* ----------------------------------------------------------------- *)

type 'd slot = { ev : slot_rec; delta : 'd option }

type ('s, 'd) t = {
  r_session : Slot_sender.session;
  r_mode : Slot_sender.mode;
  r_topo : Topology.t;
  r_host : Node.t;
  r_behavior : behavior;
  r_prng : Prng.t;
  r_meter : Meter.t;
  r_series : Series.t;
  r_law : 's law;
  r_state : 's;
  r_scheme : 'd scheme;
  r_slots_metric : string;
  r_levels_metric : string;
  r_component : string;
  r_coords : coords;  (* the packet being received, reused *)
  mutable r_level : int;
  r_active_since : int array;  (* per group: first slot it is evaluated for *)
  r_clock : 'd slot Slot_clock.t;
  mutable r_congestions : int;
  r_client : Client.t option;
  mutable r_misbehaving : bool;
  mutable r_joined_all : bool;
  mutable r_history : submission list;
      (** honest (slot, pairs) submissions, newest first, bounded: what
          a colluder copies and what a stale-replay adversary mines *)
  mutable r_collude_source : ('s, 'd) t option;
      (** when set, this receiver replays that receiver's submissions
          instead of reconstructing keys itself (paper Section 4.2) *)
}

let state r = r.r_state
let meter r = r.r_meter
let level r = r.r_level
let series r = r.r_series
let congestion_events r = r.r_congestions
let history r = r.r_history
let set_colluder r ~source = r.r_collude_source <- Some source
let group_addr r g = r.r_session.Slot_sender.base_group + g - 1
let groups r = r.r_session.Slot_sender.layering.Layering.groups

(* The groups a level holds, in ascending order. *)
let held r level =
  match r.r_scheme.holding with
  | Cumulative -> List.init (max 0 level) (fun i -> i + 1)
  | Single -> if level >= 1 then [ level ] else []

let noun r =
  match r.r_scheme.holding with Cumulative -> "level" | Single -> "group"

let stop r =
  Slot_clock.stop r.r_clock;
  r.r_law.stop r.r_state

(* A receiver has a SIGMA client exactly when it runs in Robust mode;
   without one it drives membership over plain IGMP.  Leaving is one
   SIGMA unsubscription, or IGMP leaves. *)
let depart r groups =
  let groups = List.map (group_addr r) groups in
  match r.r_client with
  | Some client -> if groups <> [] then Client.unsubscribe client ~groups
  | None ->
      List.iter
        (fun group -> Multicast.host_leave r.r_topo ~host:r.r_host ~group)
        groups

let leave r =
  if not (Slot_clock.stopped r.r_clock) then begin
    (* One level's groups, unless a plain inflater joined them all. *)
    depart r
      (if r.r_joined_all then List.init (groups r) (fun i -> i + 1)
       else held r r.r_level);
    stop r
  end

let record_level r =
  let time = Sim.now (Topology.sim r.r_topo) in
  Series.add r.r_series ~time ~value:(float_of_int r.r_level);
  Metrics.tick r.r_levels_metric;
  if Tracer.enabled () then
    Tracer.emit ~sim_time:time ~component:r.r_component
      ~event:
        (match r.r_scheme.holding with
        | Cumulative -> "level"
        | Single -> "switch")
      (fun () ->
        ("host", Json.Int r.r_host.Node.id)
        :: (noun r, Json.Int r.r_level)
        :: r.r_law.attrs r.r_state)

let[@hot] effective_level r slot =
  match r.r_scheme.holding with
  | Cumulative ->
      Layering.effective_level r.r_active_since ~level:r.r_level slot
  | Single -> if r.r_active_since.(r.r_level - 1) <= slot then r.r_level else 0

(* The lanes of an effective subscription: what must close a slot
   before it is evaluated. *)
let[@hot] lanes_of r effective =
  match r.r_scheme.holding with
  | Cumulative -> effective
  | Single -> min effective 1

let[@hot] span r slot = lanes_of r (effective_level r slot)

let[@hot] lane r group =
  match r.r_scheme.holding with
  | Cumulative -> group - 1
  | Single -> if group = r.r_level then 0 else -1

let lane_lost ~marks_lost ev i =
  let ls = ev.lanes.(i) in
  if ls.count = 0 then true
  else if marks_lost && ls.marked > 0 then true
  else ls.last_seq < 0 || ls.count < ls.last_seq + 1

let random_key r = Key.nonce r.r_prng ~width:r.r_scheme.width

let subscribe_robust r ~slot ~entitled_pairs =
  match r.r_client with
  | None -> ()
  | Some client ->
      let entitled =
        List.map (fun (g, k) -> (group_addr r g, k)) entitled_pairs
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
                  List.init (groups r) (fun i -> group_addr r (i + 1));
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
    let n = groups r in
    for g = 1 to n do
      Multicast.host_join r.r_topo ~host:r.r_host ~group:(group_addr r g)
    done;
    r.r_level <- n;
    record_level r
  end

(* Moves the subscription from the current level to [next]: the groups
   [next] adds become effective two slots on, those it drops are left
   (IGMP leaves, or one SIGMA unsubscription) unless the receiver is
   misbehaving.  Joins come first, so a single-group receiver switches
   without a gap.  In Robust mode the keys already claimed the groups
   [next] adds. *)
let move r slot ~next =
  let before = held r r.r_level and after = held r next in
  let gained = List.filter (fun g -> not (List.mem g before)) after in
  let dropped = List.filter (fun g -> not (List.mem g after)) before in
  List.iter
    (fun g ->
      if Option.is_none r.r_client then
        Multicast.host_join r.r_topo ~host:r.r_host ~group:(group_addr r g);
      r.r_active_since.(g - 1) <- slot + 2)
    gained;
  if not r.r_misbehaving then depart r dropped;
  List.iter (fun g -> r.r_active_since.(g - 1) <- max_int) dropped

(* IGMP membership follows the law's desired level: any number of
   levels down at once, one level up — and only from a fully effective
   subscription. *)
let apply_plain r slot ~effective v =
  let desired = max 1 v.desired in
  let next =
    if desired < r.r_level then desired
    else if desired > r.r_level && effective = r.r_level then r.r_level + 1
    else r.r_level
  in
  if next <> r.r_level then begin
    (* A pulse adversary that went quiet resumes honest behaviour: once
       a cumulative receiver shed a group it must be able to re-inflate
       later.  A single-group receiver that inflated keeps the other
       groups joined. *)
    if next < r.r_level && r.r_scheme.holding = Cumulative then
      r.r_joined_all <- false;
    move r slot ~next;
    r.r_level <- next;
    record_level r
  end

(* The level follows the keys DELTA lets the receiver reconstruct. *)
let apply_robust r slot s ~effective ~lost v =
  match s.delta with
  | None -> ()
  | Some delta ->
      let o =
        r.r_scheme.slot_end delta s.ev ~level:r.r_level ~effective ~lost v
      in
      subscribe_robust r ~slot:(slot + 2) ~entitled_pairs:o.keys;
      if o.level < r.r_level then r.r_law.shed r.r_state ~level:o.level;
      if o.level = 0 then begin
        (* Even the minimal group's key chain broke: re-admit through
           SIGMA's session-join once the current grant lapses. *)
        if r.r_scheme.leave_on_rejoin then move r slot ~next:0;
        (match r.r_client with
        | Some client -> Client.session_join client ~group:(group_addr r 1)
        | None -> ());
        r.r_active_since.(0) <- slot + 3;
        (* A single-group receiver's re-admission is a switch, even back
           to group 1. *)
        if r.r_level <> 1 || r.r_scheme.holding = Single then begin
          r.r_level <- 1;
          record_level r
        end
      end
      else if o.level <> r.r_level then begin
        move r slot ~next:o.level;
        r.r_level <- o.level;
        record_level r
      end;
      (* A silent minimal group while nominally subscribed means the
         grant lapsed (e.g. during an outage): keep knocking. *)
      if r.r_scheme.knock && s.ev.lanes.(0).count = 0 && r.r_level = 1 then
        match r.r_client with
        | Some client -> Client.session_join client ~group:(group_addr r 1)
        | None -> ()

(* A colluding receiver does not reconstruct anything: it replays, slot
   for slot, whatever its accomplice last submitted. *)
let collude r source =
  match (r.r_client, source.r_history) with
  | Some client, { sub_slot = slot; sub_pairs = pairs } :: _ when pairs <> [] ->
      Client.subscribe client ~slot ~pairs
  | _, _ -> ()

let eval_slot r slot s =
  Metrics.tick r.r_slots_metric;
  let level_before = r.r_level in
  (match r.r_behavior with
  | Adversarial a ->
      r.r_misbehaving <- a.adv_active ~time:(Sim.now (Topology.sim r.r_topo))
  | Inflate_after _ (* normalised to [Adversarial] at start *) | Well_behaved
    -> ());
  let effective = effective_level r slot in
  let lanes = lanes_of r effective in
  let lost g =
    g <= lanes && lane_lost ~marks_lost:r.r_law.marks_lost s.ev (g - 1)
  in
  let verdict =
    if effective < 1 then None
    else begin
      let any_lost = List.exists lost (List.init lanes (fun i -> i + 1)) in
      let v =
        r.r_law.judge r.r_state s.ev ~level:r.r_level ~effective ~any_lost
      in
      if v.signal then r.r_congestions <- r.r_congestions + 1;
      Some v
    end
  in
  (match (r.r_mode, verdict) with
  | Plain, Some _ when r.r_misbehaving -> plain_inflate r
  | Plain, Some v -> apply_plain r slot ~effective v
  | Robust, Some v -> apply_robust r slot s ~effective ~lost v
  | (Plain | Robust), None -> ());
  (match (r.r_mode, r.r_collude_source) with
  | Robust, Some source -> collude r source
  | (Plain | Robust), _ -> ());
  r.r_law.settle r.r_state (r.r_level - level_before)

let[@hot] on_data r pkt =
  let c = r.r_coords in
  if r.r_scheme.read pkt.Packet.payload c then begin
    let slot = c.slot in
    let now = Sim.now (Topology.sim r.r_topo) in
    Meter.record r.r_meter ~time:now ~bytes:pkt.Packet.size;
    let clock = r.r_clock in
    if Slot_clock.sync clock ~slot && r.r_active_since.(0) = max_int then
      r.r_active_since.(0) <- slot + 1;
    let lane = lane r c.group in
    if lane >= 0 then Slot_clock.close_lane clock ~lane ~slot ~last:c.last;
    if slot >= Slot_clock.next_eval clock then begin
      (* Only the lanes of the held groups feed congestion state; every
         packet of the session feeds the mask and the DELTA evidence. *)
      let s = Slot_clock.slot_rec clock slot in
      if lane >= 0 then begin
        let ls = s.ev.lanes.(lane) in
        ls.count <- ls.count + 1;
        if pkt.Packet.ecn then ls.marked <- ls.marked + 1;
        if c.last then ls.last_seq <- c.seq
      end;
      s.ev.mask <- s.ev.mask lor c.mask;
      match s.delta with
      | Some delta -> r.r_scheme.add delta c pkt
      | None -> ()
    end;
    Slot_clock.try_eval clock
  end

let start ?(at = 0.) ?(behavior = Well_behaved) topo ~host ~prng ~mode
    ~processing_margin (session : Slot_sender.session) scheme law state =
  (* The legacy constructor is sugar for the canonical inflation
     adversary, so the Figure 1 misbehaviour has a single
     implementation. *)
  let behavior =
    match behavior with
    | Inflate_after at -> Adversarial (inflation_adversary ~at)
    | (Well_behaved | Adversarial _) as b -> b
  in
  let n = session.Slot_sender.layering.Layering.groups in
  let lanes = match scheme.holding with Cumulative -> n | Single -> 1 in
  let fresh () =
    {
      ev =
        {
          lanes =
            Array.init lanes (fun _ ->
                { count = 0; last_seq = -1; marked = 0 });
          mask = 0;
        };
      delta =
        (match mode with
        | Slot_sender.Robust -> Some (scheme.evidence ())
        | Slot_sender.Plain -> None);
    }
  in
  let r =
    {
      r_session = session;
      r_mode = mode;
      r_topo = topo;
      r_host = host;
      r_behavior = behavior;
      r_prng = prng;
      r_meter = Meter.create ();
      r_series = Series.create ();
      r_law = law;
      r_state = state;
      r_scheme = scheme;
      r_slots_metric = law.name ^ ".slots";
      r_levels_metric =
        (law.name
        ^ match scheme.holding with
          | Cumulative -> ".level_changes"
          | Single -> ".switches");
      r_component = law.name ^ ".receiver";
      r_coords = { group = 0; slot = 0; seq = 0; last = false; mask = 0 };
      r_level = 1;
      r_active_since = Array.make n max_int;
      r_clock =
        Slot_clock.create (Topology.sim topo)
          ~slot_duration:session.Slot_sender.slot_duration ~processing_margin
          ~lanes ~fresh;
      r_congestions = 0;
      r_client =
        (match mode with
        | Slot_sender.Robust ->
            Some (Client.create ~width:scheme.width topo ~host)
        | Slot_sender.Plain -> None);
      r_misbehaving = false;
      r_joined_all = false;
      r_history = [];
      r_collude_source = None;
    }
  in
  Slot_clock.bind r.r_clock ~span:(span r) ~eval:(eval_slot r);
  (* Per-receiver trajectories (no-op unless sampling is on): goodput in
     kbit/s, the current subscription level and the law's own gauges —
     the curves of the paper's attack/recovery figures. *)
  if Timeseries.enabled () then begin
    let name suffix =
      Printf.sprintf "%s.s%d.h%d.%s" law.name session.Slot_sender.id
        host.Node.id suffix
    in
    Timeseries.sample_rate ~scale:0.008 (name "goodput_kbps") (fun () ->
        float_of_int (Meter.total_bytes r.r_meter));
    Timeseries.sample_gauge (name (noun r)) (fun () -> float_of_int r.r_level);
    List.iter
      (fun (suffix, gauge) ->
        Timeseries.sample_gauge (name suffix) (fun () -> gauge state))
      law.gauges
  end;
  let deliver = on_data r in
  for g = 1 to n do
    Node.subscribe_local host ~group:(group_addr r g) deliver
  done;
  Sim.post (Topology.sim topo) ~at (fun () ->
      match r.r_client with
      | Some client -> Client.session_join client ~group:(group_addr r 1)
      | None -> Multicast.host_join topo ~host ~group:(group_addr r 1));
  r
