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
module Replicated = Mcc_delta.Replicated
module Client = Mcc_sigma.Client
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Json = Mcc_obs.Json

type config = Flid.config

let make_config = Flid.make_config
let configure = Flid.configure
let default_slot _ = Flid.default_slot Flid.Robust
let group_addr = Flid.group_addr

type Payload.t +=
  | Rep_data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      upgrade_mask : int;
    }

let () =
  Payload.register_pp (fun fmt -> function
    | Rep_data { session; group; slot; seq; _ } ->
        Format.fprintf fmt "rep s%d g%d slot%d #%d" session group slot seq;
        true
    | _ -> false)

(* ----------------------------------------------------------------- *)
(* Sender                                                            *)
(* ----------------------------------------------------------------- *)

type sender = Replicated.sender Slot_sender.t

(* Each group carries the full content: group g transmits at the
   cumulative rate R_g, not a layer residue. *)
let sender_start ?at topo ~node ~prng (config : config) =
  Slot_sender.start ?at topo ~node ~prng
    ~rate:(fun g -> Layering.cumulative_rate config.layering ~level:g)
    ~repair_fraction:0. (Flid.sender_session config)
    (Slot_sender.xor (module Replicated) config.mode ~width:config.width
       ~fec:config.fec_scheme ~payload:(fun d ->
         Rep_data
           { session = config.id; group = d.group; slot = d.slot; seq = d.seq;
             last = d.last; upgrade_mask = d.mask }))

let sender_stats = Slot_sender.stats
let sender_stop = Slot_sender.stop

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

type slot_rec = {
  mutable count : int;
  mutable last_seq : int option;
  mutable mask : int;
  delta_recv : Replicated.receiver option;
}

type receiver = {
  r_config : config;
  r_topo : Topology.t;
  r_host : Node.t;
  r_behavior : Flid.behavior;
  r_prng : Prng.t;
  r_meter : Meter.t;
  r_series : Series.t;
  mutable r_group : int;  (* currently subscribed group; 0 = re-admitting *)
  mutable r_active_since : int;  (* first slot the group is evaluated for *)
  r_clock : slot_rec Slot_clock.t;
      (* one lane: the subscribed group's packets *)
  r_client : Client.t option;
  mutable r_misbehaving : bool;
  mutable r_joined_all : bool;
}

let receiver_meter r = r.r_meter
let receiver_group r = r.r_group
let group_series r = r.r_series
let receiver_stop r = Slot_clock.stop r.r_clock

let receiver_leave r =
  if not (Slot_clock.stopped r.r_clock) then begin
    let config = r.r_config in
    (* One group, unless a plain inflater joined them all. *)
    let groups =
      if r.r_joined_all then
        List.init config.layering.Layering.groups (fun i ->
            group_addr config (i + 1))
      else if r.r_group >= 1 then [ group_addr config r.r_group ]
      else []
    in
    Flid.depart r.r_topo ~host:r.r_host r.r_client ~groups;
    receiver_stop r
  end

let record_group r =
  let time = Sim.now (Topology.sim r.r_topo) in
  Series.add r.r_series ~time ~value:(float_of_int r.r_group);
  Metrics.tick "rep.switches";
  if Tracer.enabled () then
    Tracer.emit ~sim_time:time ~component:"rep.receiver" ~event:"switch"
      (fun () ->
        [
          ("host", Json.Int r.r_host.Node.id);
          ("group", Json.Int r.r_group);
        ])

let lost rec_ =
  rec_.count = 0
  || match rec_.last_seq with Some l -> rec_.count < l + 1 | None -> true

let switch_plain r ~from_group ~to_group =
  let config = r.r_config in
  if to_group >= 1 then
    Multicast.host_join r.r_topo ~host:r.r_host
      ~group:(group_addr config to_group);
  if from_group >= 1 && from_group <> to_group then
    Multicast.host_leave r.r_topo ~host:r.r_host
      ~group:(group_addr config from_group)

let plain_inflate r =
  if not r.r_joined_all then begin
    r.r_joined_all <- true;
    let n = r.r_config.layering.Layering.groups in
    (* Replicated inflation: jump straight to the fastest group (and,
       greedily, keep everything else too). *)
    for g = 1 to n do
      Multicast.host_join r.r_topo ~host:r.r_host
        ~group:(group_addr r.r_config g)
    done;
    r.r_group <- n;
    record_group r
  end

let eval_slot r slot rec_ =
  let config = r.r_config in
  let n = config.layering.Layering.groups in
  (match r.r_behavior with
  | Flid.Adversarial a ->
      (* Replicated receivers hold one group at a time, so every active
         adversary degrades to the same misbehaviour: claim the faster
         streams with guessed keys (Robust) or plain joins. *)
      r.r_misbehaving <- a.Flid.adv_active ~time:(Sim.now (Topology.sim r.r_topo))
  | Flid.Inflate_after t when Sim.now (Topology.sim r.r_topo) >= t ->
      r.r_misbehaving <- true
  | Flid.Inflate_after _ | Flid.Well_behaved -> ());
  Metrics.tick "rep.slots";
  if r.r_group >= 1 && r.r_active_since <= slot then begin
    let congested = lost rec_ in
    if congested then Metrics.tick "rep.inferred_losses";
    let g = r.r_group in
    match config.mode with
    | Flid.Plain ->
        if r.r_misbehaving then plain_inflate r
        else if congested then begin
          let to_group = max 1 (g - 1) in
          if to_group <> g then begin
            switch_plain r ~from_group:g ~to_group;
            r.r_group <- to_group;
            r.r_active_since <- slot + 2;
            record_group r
          end
        end
        else if g < n && Layering.mask_bit rec_.mask (g + 1) then begin
          switch_plain r ~from_group:g ~to_group:(g + 1);
          r.r_group <- g + 1;
          r.r_active_since <- slot + 2;
          record_group r
        end
    | Flid.Robust -> (
        match rec_.delta_recv with
        | None -> ()
        | Some delta ->
            let outcome =
              Replicated.slot_end delta ~group:g ~congested
                ~upgrade_to:(fun j -> j <= n && Layering.mask_bit rec_.mask j)
            in
            let pairs =
              match outcome.Replicated.key with
              | Some k when outcome.Replicated.next_group >= 1 ->
                  [ (group_addr config outcome.Replicated.next_group, k) ]
              | Some _ | None -> []
            in
            let pairs =
              if r.r_misbehaving then
                (* Claim every faster group with guessed keys. *)
                pairs
                @ List.filter_map
                    (fun j ->
                      if j > outcome.Replicated.next_group then
                        Some
                          ( group_addr config j,
                            Key.nonce r.r_prng ~width:config.width )
                      else None)
                    (List.init n (fun i -> i + 1))
              else pairs
            in
            (match r.r_client with
            | Some client when pairs <> [] ->
                Client.subscribe client ~slot:(slot + 2) ~pairs
            | Some _ | None -> ());
            let next = outcome.Replicated.next_group in
            if next = 0 then begin
              (match r.r_client with
              | Some client ->
                  Client.session_join client ~group:(group_addr config 1)
              | None -> ());
              r.r_group <- 1;
              r.r_active_since <- slot + 3;
              record_group r
            end
            else if next <> g then begin
              (* Switch, don't stack: a replicated receiver leaves its
                 old group as it moves, otherwise both rates transit the
                 bottleneck and the overlap itself causes congestion. *)
              (if not r.r_misbehaving then
                 match r.r_client with
                 | Some client ->
                     Client.unsubscribe client ~groups:[ group_addr config g ]
                 | None -> ());
              r.r_group <- next;
              r.r_active_since <- slot + 2;
              record_group r
            end;
            (* Total silence while nominally subscribed: knock again. *)
            if rec_.count = 0 && r.r_group = 1 then
              match r.r_client with
              | Some client ->
                  Client.session_join client ~group:(group_addr config 1)
              | None -> ())
  end

let[@hot] span r slot =
  if r.r_group >= 1 && r.r_active_since <= slot then 1 else 0

let on_data r pkt =
  match pkt.Packet.payload with
  | Rep_data { session; group; slot; seq; last; upgrade_mask }
    when session = r.r_config.id ->
      let now = Sim.now (Topology.sim r.r_topo) in
      Meter.record r.r_meter ~time:now ~bytes:pkt.Packet.size;
      let clock = r.r_clock in
      if Slot_clock.sync clock ~slot && r.r_active_since = max_int then
        r.r_active_since <- slot + 1;
      if group = r.r_group then Slot_clock.close_lane clock ~lane:0 ~slot ~last;
      if slot >= Slot_clock.next_eval clock then begin
        (* Only the subscribed group's packets feed congestion state; a
           packet from another group (stale forwarding during a switch)
           still feeds the DELTA accumulators, which are per-group. *)
        let rec_ = Slot_clock.slot_rec clock slot in
        if group = r.r_group then begin
          rec_.count <- rec_.count + 1;
          if last then rec_.last_seq <- Some seq
        end;
        rec_.mask <- rec_.mask lor upgrade_mask;
        match rec_.delta_recv with
        | Some dr when pkt.Packet.delta_component <> Packet.no_field ->
            Replicated.on_packet dr ~group ~component:pkt.Packet.delta_component
              ~decrease:pkt.Packet.delta_decrease
        | Some _ | None -> ()
      end;
      Slot_clock.try_eval clock
  | _ -> ()

let receiver_start ?(at = 0.) ?(behavior = Flid.Well_behaved) topo ~host ~prng
    (config : config) =
  let n = config.layering.Layering.groups in
  let r =
    {
      r_config = config;
      r_topo = topo;
      r_host = host;
      r_behavior = behavior;
      r_prng = prng;
      r_meter = Meter.create ();
      r_series = Series.create ();
      r_group = 1;
      r_active_since = max_int;
      r_clock =
        Slot_clock.create (Topology.sim topo)
          ~slot_duration:config.slot_duration
          ~processing_margin:config.processing_margin ~lanes:1
          ~fresh:(fun () ->
            {
              count = 0;
              last_seq = None;
              mask = 0;
              delta_recv =
                (match config.mode with
                | Flid.Robust -> Some (Replicated.receiver_create ~groups:n)
                | Flid.Plain -> None);
            });
      r_client =
        (match config.mode with
        | Flid.Robust -> Some (Client.create ~width:config.width topo ~host)
        | Flid.Plain -> None);
      r_misbehaving = false;
      r_joined_all = false;
    }
  in
  Slot_clock.bind r.r_clock ~span:(span r) ~eval:(eval_slot r);
  Flid.sample_series ~prefix:"rep" ~id:config.id ~host r.r_meter
    [ ("group", fun () -> float_of_int r.r_group) ];
  Flid.attach ~at topo ~host r.r_client
    ~groups:(List.init n (fun i -> group_addr config (i + 1)))
    (on_data r);
  r
