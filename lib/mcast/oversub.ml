module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
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

type config = {
  flid : Flid.config;
  alpha : float;
  target : float;
  md : float;
  ai_bps : float;
  max_exp : int;
}

let make_config ?(packet_size = 576) ?(width = Key.default_width)
    ?upgrade_period ?(processing_margin = 0.9) ?(alpha = 0.5) ?(target = 0.3)
    ?(md = 0.5) ?(ai_bps = 10_000.) ?(max_exp = 6) ~id ~base_group ~layering
    ~slot_duration ~mode () =
  if not (alpha > 0. && alpha <= 1.) then invalid_arg "Oversub.make_config: alpha";
  if not (target > 0. && target < 1.) then
    invalid_arg "Oversub.make_config: target";
  if not (md > 0. && md <= 1.) then invalid_arg "Oversub.make_config: md";
  if ai_bps <= 0. then invalid_arg "Oversub.make_config: ai_bps";
  if max_exp < 0 then invalid_arg "Oversub.make_config: max_exp";
  let flid =
    Flid.make_config ~packet_size ~width ?upgrade_period ~processing_margin ~id
      ~base_group ~layering ~slot_duration ~mode ()
  in
  { flid; alpha; target; md; ai_bps; max_exp }

let group_addr config g = Flid.group_addr config.flid g

(* The sender side is protocol-independent: slot-clocked layered groups
   with precomputed DELTA keys and SIGMA tuple distribution, identical
   to FLID-DS.  Oversub is a receiver-side control law over that wire
   format, so the sender is FLID's. *)

type sender = Flid.sender

let sender_start ?at topo ~node ~prng config =
  Flid.sender_start ?at topo ~node ~prng config.flid

let sender_stats = Flid.sender_stats
let sender_stop = Flid.sender_stop

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

let mask_bit mask g = mask land (1 lsl (g - 1)) <> 0

type group_slot_rec = {
  mutable count : int;
  mutable last_seq : int;  (** seq of the flagged last packet; -1 until seen *)
  mutable saw_last : bool;
  mutable marked : int;  (** ECN-marked arrivals *)
}

type slot_rec = {
  per_group : group_slot_rec array;
  delta_recv : Layered.receiver option;
  mutable mask : int;
}

type receiver = {
  r_config : config;
  r_topo : Topology.t;
  r_host : Node.t;
  r_meter : Meter.t;
  r_series : Series.t;
  mutable r_level : int;
  mutable r_rate : float;  (** the CC rate variable, bps *)
  mutable r_ewma : float;  (** EWMA of the per-slot mark fraction *)
  mutable r_exp : int;  (** consecutive uncongested slots (probe exponent) *)
  r_active_since : int array;
  r_slots : (int, slot_rec) Hashtbl.t;
  r_base : float ref;  (* estimated start of slot 0, stored unboxed *)
  mutable r_synced : bool;
  mutable r_next_eval : int;
  r_highest : int array;
  mutable r_congestions : int;
  mutable r_decreases : int;
  r_client : Client.t option;
  mutable r_stopped : bool;
}

let receiver_meter r = r.r_meter
let receiver_level r = r.r_level
let level_series r = r.r_series
let congestion_events r = r.r_congestions
let decrease_events r = r.r_decreases
let mark_ewma r = r.r_ewma
let receiver_stop r = r.r_stopped <- true

let receiver_leave r =
  if not r.r_stopped then begin
    let config = r.r_config in
    let groups =
      List.init (max 0 r.r_level) (fun i -> group_addr config (i + 1))
    in
    (match (config.flid.Flid.mode, r.r_client) with
    | Flid.Robust, Some client when groups <> [] ->
        Client.unsubscribe client ~groups
    | (Flid.Robust | Flid.Plain), _ ->
        List.iter
          (fun group -> Multicast.host_leave r.r_topo ~host:r.r_host ~group)
          groups);
    r.r_stopped <- true
  end

let new_slot_rec r slot =
  let n = r.r_config.flid.Flid.layering.Layering.groups in
  let rec_ =
    {
      per_group =
        Array.init n (fun _ ->
            { count = 0; last_seq = -1; saw_last = false; marked = 0 });
      delta_recv =
        (match r.r_config.flid.Flid.mode with
        | Flid.Robust -> Some (Layered.receiver_create ~groups:n)
        | Flid.Plain -> None);
      mask = 0;
    }
  in
  Hashtbl.replace r.r_slots slot rec_;
  rec_

let[@hot] slot_rec r slot =
  match Hashtbl.find r.r_slots slot with
  | exception Not_found -> new_slot_rec r slot
  | rec_ -> rec_

let record_level r =
  let time = Sim.now (Topology.sim r.r_topo) in
  Series.add r.r_series ~time ~value:(float_of_int r.r_level);
  Metrics.tick "oversub.level_changes";
  if Tracer.enabled () then
    Tracer.emit ~sim_time:time ~component:"oversub.receiver" ~event:"level"
      (fun () ->
        [
          ("host", Json.Int r.r_host.Node.id);
          ("level", Json.Int r.r_level);
          ("ewma", Json.Float r.r_ewma);
        ])

let[@hot] rec climb r slot e =
  if e >= r.r_level then r.r_level
  else if r.r_active_since.(e) <= slot then climb r slot (e + 1)
  else e

let[@hot] effective_level r slot =
  if r.r_active_since.(0) <= slot then climb r slot 1 else 0

(* Loss is missing packets only: a marked packet arrived, so it counts
   toward the mark fraction, not toward loss. *)
let group_lost rec_ g =
  let gs = rec_.per_group.(g - 1) in
  if gs.count = 0 then true
  else if not gs.saw_last then true
  else gs.last_seq < 0 || gs.count < gs.last_seq + 1

(* The control law (per slot): EWMA of the slot's ECN mark fraction,
   with packet loss saturating the congestion signal.  Above the target,
   multiplicative decrease of the rate variable (proportional to the
   excess) and a probe reset; below, additive increase with an
   exponentially growing quantum.  Returns the level the rate variable
   asks for, before key/authorization constraints. *)
let control_update r rec_ ~effective ~any_lost =
  let c = r.r_config in
  let layering = c.flid.Flid.layering in
  let received = ref 0 and marked = ref 0 in
  for g = 1 to effective do
    let gs = rec_.per_group.(g - 1) in
    received := !received + gs.count;
    marked := !marked + gs.marked
  done;
  let fraction =
    if any_lost || !received = 0 then 1.0
    else float_of_int !marked /. float_of_int !received
  in
  r.r_ewma <- ((1. -. c.alpha) *. r.r_ewma) +. (c.alpha *. fraction);
  let congested = r.r_ewma > c.target in
  if congested then begin
    r.r_decreases <- r.r_decreases + 1;
    Metrics.tick "oversub.decreases";
    r.r_rate <-
      Float.max layering.Layering.min_rate_bps
        (r.r_rate *. (1. -. ((r.r_ewma -. c.target) *. c.md)));
    r.r_exp <- 0
  end
  else begin
    let quantum = c.ai_bps *. (2. ** float_of_int (min r.r_exp c.max_exp)) in
    r.r_exp <- r.r_exp + 1;
    r.r_rate <- Float.min (Layering.top_rate layering) (r.r_rate +. quantum)
  end;
  (!marked, max 1 (Layering.fair_level layering ~rate_bps:r.r_rate))

(* Desired level after the per-slot constraints: decreases may span
   several levels at once, increases move one level per slot and only
   when the slot's mask authorized an upgrade to level+1. *)
let constrain_desired r rec_ ~effective ~desired =
  let c = r.r_config in
  let layering = c.flid.Flid.layering in
  let desired =
    if desired > r.r_level then
      if effective = r.r_level && mask_bit rec_.mask (r.r_level + 1) then
        r.r_level + 1
      else r.r_level
    else desired
  in
  (* Bound probe overshoot to one pending level so a long wait for an
     upgrade authorization cannot bank a multi-level jump. *)
  let cap =
    Layering.cumulative_rate layering
      ~level:(min layering.Layering.groups (desired + 1))
  in
  r.r_rate <- Float.min r.r_rate cap;
  desired

let eval_plain r slot rec_ ~effective ~desired =
  let config = r.r_config in
  ignore rec_;
  if desired < r.r_level then begin
    for g = desired + 1 to r.r_level do
      Multicast.host_leave r.r_topo ~host:r.r_host ~group:(group_addr config g);
      r.r_active_since.(g - 1) <- max_int
    done;
    r.r_level <- desired;
    record_level r
  end
  else if desired > r.r_level && effective = r.r_level then begin
    let g = r.r_level + 1 in
    Multicast.host_join r.r_topo ~host:r.r_host ~group:(group_addr config g);
    r.r_active_since.(g - 1) <- slot + 2;
    r.r_level <- g;
    record_level r
  end

let eval_robust r slot rec_ ~effective ~desired ~any_lost ~any_marked ~lost =
  let config = r.r_config in
  match rec_.delta_recv with
  | None -> ()
  | Some delta ->
      (* Marked components were scrubbed by a trusted ECN edge, so the
         top keys cannot be reconstructed: marks force the decrease-key
         path even when the EWMA alone would not decrease — the DELTA
         synergy this protocol exists to exercise. *)
      let key_congested = any_lost || any_marked || desired < r.r_level in
      let upgrade_to j =
        (not key_congested)
        && desired > r.r_level
        && j = r.r_level + 1
        && mask_bit rec_.mask j
      in
      let outcome =
        Layered.slot_end delta ~level:effective ~congested:key_congested ~lost
          ~upgrade_to
      in
      let new_level =
        if key_congested then min outcome.Layered.next_level desired
        else if effective = r.r_level then outcome.Layered.next_level
        else r.r_level
      in
      let keys =
        List.filter (fun (g, _) -> g <= max new_level 1) outcome.Layered.keys
      in
      let pairs = List.map (fun (g, k) -> (group_addr config g, k)) keys in
      (match r.r_client with
      | Some client when pairs <> [] ->
          Client.subscribe client ~slot:(slot + 2) ~pairs
      | Some _ | None -> ());
      if new_level < r.r_level then begin
        (match r.r_client with
        | Some client ->
            let dropped =
              List.init (r.r_level - max 0 new_level) (fun i ->
                  group_addr config (max 0 new_level + i + 1))
            in
            Client.unsubscribe client ~groups:dropped
        | None -> ());
        for g = max 1 new_level + 1 to r.r_level do
          r.r_active_since.(g - 1) <- max_int
        done;
        (* The key chain forced the rate below what the EWMA asked for:
           the rate variable follows the attainable level down. *)
        r.r_rate <-
          Float.min r.r_rate
            (Layering.cumulative_rate config.flid.Flid.layering
               ~level:(max 1 new_level))
      end;
      if new_level > r.r_level then
        r.r_active_since.(new_level - 1) <- slot + 2;
      if new_level = 0 then begin
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
      if rec_.per_group.(0).count = 0 && r.r_level = 1 then
        match r.r_client with
        | Some client -> Client.session_join client ~group:(group_addr config 1)
        | None -> ()

let eval_slot r slot =
  let rec_ = slot_rec r slot in
  Metrics.tick "oversub.slots";
  let effective = effective_level r slot in
  (if effective >= 1 then begin
     let lost g = g <= effective && group_lost rec_ g in
     let any_lost = List.exists lost (List.init effective (fun i -> i + 1)) in
     let marked, rate_level = control_update r rec_ ~effective ~any_lost in
     if any_lost then Metrics.tick "oversub.lossy_slots";
     if any_lost || marked > 0 then begin
       r.r_congestions <- r.r_congestions + 1;
       Metrics.tick "oversub.congested_slots"
     end;
     let desired = constrain_desired r rec_ ~effective ~desired:rate_level in
     match r.r_config.flid.Flid.mode with
     | Flid.Plain -> eval_plain r slot rec_ ~effective ~desired
     | Flid.Robust ->
         eval_robust r slot rec_ ~effective ~desired ~any_lost
           ~any_marked:(marked > 0) ~lost
   end);
  let stale =
    Hashtbl.fold (fun s _ acc -> if s <= slot then s :: acc else acc) r.r_slots []
  in
  List.iter (Hashtbl.remove r.r_slots) stale

let[@hot] rec groups_closed r slot effective g =
  if g > effective then true
  else
    let closed =
      r.r_highest.(g - 1) > slot
      ||
      match Hashtbl.find r.r_slots slot with
      | exception Not_found -> false
      | rec_ -> rec_.per_group.(g - 1).saw_last
    in
    closed && groups_closed r slot effective (g + 1)

let[@hot] slot_closed r slot =
  let effective = effective_level r slot in
  effective >= 1 && groups_closed r slot effective 1

let rec try_eval r =
  if (not r.r_stopped) && slot_closed r r.r_next_eval then begin
    let slot = r.r_next_eval in
    eval_slot r slot;
    r.r_next_eval <- slot + 1;
    try_eval r
  end

let rec schedule_eval r =
  if not r.r_stopped then begin
    let sim = Topology.sim r.r_topo in
    let config = r.r_config.flid in
    let slot = r.r_next_eval in
    let at =
      !(r.r_base)
      +. (float_of_int (slot + 1) *. config.Flid.slot_duration)
      +. (config.Flid.processing_margin *. config.Flid.slot_duration)
    in
    let at = Float.max at (Sim.now sim) in
    Sim.post sim ~at (fun () ->
        if not r.r_stopped then begin
          if r.r_next_eval = slot then begin
            eval_slot r slot;
            r.r_next_eval <- slot + 1;
            try_eval r
          end;
          schedule_eval r
        end)
  end

let[@hot] on_data r pkt =
  match pkt.Packet.payload with
  | Flid.Data { session; group; slot; seq; last; upgrade_mask }
    when session = r.r_config.flid.Flid.id ->
      let now = Sim.now (Topology.sim r.r_topo) in
      Meter.record r.r_meter ~time:now ~bytes:pkt.Packet.size;
      let candidate_base =
        now -. (float_of_int slot *. r.r_config.flid.Flid.slot_duration)
      in
      if not r.r_synced then begin
        r.r_synced <- true;
        r.r_base := candidate_base;
        r.r_next_eval <- slot + 1;
        if r.r_active_since.(0) = max_int then
          r.r_active_since.(0) <- slot + 1;
        schedule_eval r
      end
      else if candidate_base < !(r.r_base) then r.r_base := candidate_base;
      r.r_highest.(group - 1) <- Int.max r.r_highest.(group - 1) slot;
      if slot >= r.r_next_eval then begin
        let rec_ = slot_rec r slot in
        let gs = rec_.per_group.(group - 1) in
        gs.count <- gs.count + 1;
        if pkt.Packet.ecn then gs.marked <- gs.marked + 1;
        if last then begin
          gs.saw_last <- true;
          gs.last_seq <- seq
        end;
        rec_.mask <- rec_.mask lor upgrade_mask;
        match rec_.delta_recv with
        | Some dr when pkt.Packet.delta_component <> Packet.no_field ->
            Layered.on_packet dr ~group ~component:pkt.Packet.delta_component
              ~decrease:pkt.Packet.delta_decrease
        | Some _ | None -> ()
      end;
      try_eval r
  | _ -> ()

let receiver_start ?(at = 0.) topo ~host ~prng config =
  (* An honest Oversub receiver draws no randomness; the parameter keeps
     receiver construction uniform across the protocol library. *)
  ignore (prng : Prng.t);
  let n = config.flid.Flid.layering.Layering.groups in
  let r =
    {
      r_config = config;
      r_topo = topo;
      r_host = host;
      r_meter = Meter.create ();
      r_series = Series.create ();
      r_level = 1;
      r_rate = config.flid.Flid.layering.Layering.min_rate_bps;
      r_ewma = 0.;
      r_exp = 0;
      r_active_since = Array.make n max_int;
      r_slots = Hashtbl.create 8;
      r_base = ref infinity;
      r_synced = false;
      r_next_eval = 0;
      r_highest = Array.make n (-1);
      r_congestions = 0;
      r_decreases = 0;
      r_client =
        (match config.flid.Flid.mode with
        | Flid.Robust ->
            Some (Client.create ~width:config.flid.Flid.width topo ~host)
        | Flid.Plain -> None);
      r_stopped = false;
    }
  in
  if Timeseries.enabled () then begin
    let name suffix =
      Printf.sprintf "oversub.s%d.h%d.%s" config.flid.Flid.id host.Node.id
        suffix
    in
    Timeseries.sample_rate ~scale:0.008 (name "goodput_kbps") (fun () ->
        float_of_int (Meter.total_bytes r.r_meter));
    Timeseries.sample_gauge (name "level") (fun () -> float_of_int r.r_level);
    Timeseries.sample_gauge (name "mark_ewma") (fun () -> r.r_ewma)
  end;
  for g = 1 to n do
    Node.subscribe_local host ~group:(group_addr config g) (on_data r)
  done;
  Sim.post (Topology.sim topo) ~at (fun () ->
      match (config.flid.Flid.mode, r.r_client) with
      | Flid.Plain, _ ->
          Multicast.host_join topo ~host ~group:(group_addr config 1)
      | Flid.Robust, Some client ->
          Client.session_join client ~group:(group_addr config 1)
      | Flid.Robust, None -> ());
  r
