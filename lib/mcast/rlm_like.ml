module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Multicast = Mcc_net.Multicast
module Meter = Mcc_util.Meter
module Shamir = Mcc_util.Shamir
module Threshold = Mcc_delta.Threshold
module Mux = Mcc_transport.Mux
module Client = Mcc_sigma.Client
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Json = Mcc_obs.Json

type policy = Ladder | Equation

type config = {
  id : int;
  base_group : int;
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;
  mode : Flid.mode;
  base_threshold : float;
  threshold_decay : float;
  repair_fraction : float;
  policy : policy;
  upgrade_period : int -> int;
  processing_margin : float;
}

let aligned_threshold fraction = fraction /. (1. +. fraction)

let make_config ?(packet_size = 576) ?(base_threshold = 0.25)
    ?(threshold_decay = 1.3) ?(repair_fraction = 0.) ?(policy = Ladder)
    ?upgrade_period ?(processing_margin = 0.9) ~id ~base_group ~layering
    ~slot_duration ~mode () =
  if base_threshold <= 0. || base_threshold >= 1. then
    invalid_arg "Rlm_like.make_config: base_threshold";
  if threshold_decay < 1. then invalid_arg "Rlm_like.make_config: decay";
  if repair_fraction < 0. then invalid_arg "Rlm_like.make_config: repair";
  let upgrade_period =
    match upgrade_period with
    | Some f -> f
    | None -> Flid.default_upgrade_period layering
  in
  {
    id;
    base_group;
    layering;
    slot_duration;
    packet_size;
    mode;
    base_threshold;
    threshold_decay;
    repair_fraction;
    policy;
    upgrade_period;
    processing_margin;
  }

let configure ~id ~base_group ~layering ~slot_duration ~mode =
  make_config ~id ~base_group ~layering ~slot_duration ~mode ()

let default_slot _ = Flid.default_slot Flid.Robust
let group_addr config g = config.base_group + g - 1

let threshold config ~level =
  config.base_threshold /. (config.threshold_decay ** float_of_int (level - 1))

type Payload.t +=
  | Rlm_data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      repair : bool;
      upgrade_mask : int;
      top_shares : (int * Shamir.share) list;
      inc_shares : (int * Shamir.share) list;
    }

type Payload.t +=
  | Rtt_probe of { session : int; receiver : int; sent_at : float }
  | Rtt_echo of { session : int; receiver : int; sent_at : float }

let () =
  Payload.register_pp (fun fmt -> function
    | Rtt_probe { session; receiver; _ } ->
        Format.fprintf fmt "rlm-probe s%d r%d" session receiver;
        true
    | Rtt_echo { session; receiver; _ } ->
        Format.fprintf fmt "rlm-echo s%d r%d" session receiver;
        true
    | Rlm_data { session; group; slot; seq; _ } ->
        Format.fprintf fmt "rlm s%d g%d slot%d #%d" session group slot seq;
        true
    | _ -> false)

(* ----------------------------------------------------------------- *)
(* Sender                                                            *)
(* ----------------------------------------------------------------- *)

(* A slot's key material (Robust mode): the level keys, and the
   increase keys of levels 1..N-1 (key l guards level l+1). *)
type keys = { top : Threshold.sender; inc : Threshold.sender option }
type sender = keys Slot_sender.t

(* The Shamir threshold scheme.  The slot's packet counts are decided
   before its keys are drawn, which is what lets the polynomials be
   sized exactly; keys and shares are GF(2^31 - 1) elements. *)
let scheme config =
  let n = config.layering.Layering.groups in
  let draw prng ~mask:_ ~counts =
    let thresholds = Array.init n (fun i -> threshold config ~level:(i + 1)) in
    let create levels =
      Threshold.sender_create ~prng ~levels
        ~per_group_counts:(Array.sub counts 0 levels)
        ~loss_thresholds:(Array.sub thresholds 0 levels)
    in
    let top = create n in
    { top; inc = (if n >= 2 then Some (create (n - 1)) else None) }
  in
  let keys { top; inc } ~mask ~group:g =
    let top_key = Threshold.level_key top ~level:g in
    match inc with
    | Some inc when g >= 2 && Layering.mask_bit mask g ->
        [ Threshold.level_key inc ~level:(g - 1); top_key ]
    | Some _ | None -> [ top_key ]
  in
  let payload keys (d : Slot_sender.draft) =
    let shares t =
      Threshold.shares_for_packet t ~group:d.group ~packet_index:(d.seq + 1)
    in
    let top_shares, inc_shares =
      match keys with
      | None -> ([], [])
      | Some { top; inc } ->
          ( shares top,
            match inc with
            | Some inc when d.group < n ->
                (* Shares of increase keys, only for authorized targets. *)
                List.filter_map
                  (fun (l, share) ->
                    if Layering.mask_bit d.mask (l + 1) then Some (l + 1, share)
                    else None)
                  (shares inc)
            | Some _ | None -> [] )
    in
    d.delta_bytes <- 4 * (List.length top_shares + List.length inc_shares);
    Rlm_data
      { session = config.id; group = d.group; slot = d.slot; seq = d.seq;
        last = d.last; repair = d.repair; upgrade_mask = d.mask; top_shares;
        inc_shares }
  in
  let draw = match config.mode with Flid.Plain -> None | Flid.Robust -> Some draw in
  { Slot_sender.width = 31; fec = Mcc_sigma.Fec.Repetition 2; draw; keys; payload }

let sender_start ?at topo ~node ~prng config =
  let s =
    Slot_sender.start ?at topo ~node ~prng
      ~rate:(fun g -> Layering.layer_rate config.layering ~group:g)
      ~repair_fraction:config.repair_fraction
      { Slot_sender.id = config.id; base_group = config.base_group;
        layering = config.layering; slot_duration = config.slot_duration;
        packet_size = config.packet_size;
        upgrade_period = config.upgrade_period }
      (scheme config)
  in
  (* Echo RTT probes: the Equation policy measures its multicast round
     trip against the sender. *)
  Mux.add_handler (Mux.of_node node) (fun pkt ->
      match pkt.Packet.payload with
      | Rtt_probe { session; receiver; sent_at } when session = config.id ->
          Node.originate node
            (Packet.make ~src:node.Node.id ~dst:(Packet.Unicast receiver)
               ~size:40 (Rtt_echo { session; receiver; sent_at }));
          true
      | _ -> false);
  s

let sender_stats = Slot_sender.stats
let sender_stop = Slot_sender.stop

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

type group_slot_rec = {
  mutable count : int;
  mutable last_seq : int option;
}

type slot_rec = {
  per_group : group_slot_rec array;
  top_recv : Threshold.receiver;
  inc_recv : Threshold.receiver;
  mutable mask : int;
}

type receiver = {
  r_config : config;
  r_topo : Topology.t;
  r_host : Node.t;
  r_meter : Meter.t;
  mutable r_level : int;
  r_active_since : int array;
  r_clock : slot_rec Slot_clock.t;
  r_client : Client.t option;
  r_loss_est : Tfrc.Loss_estimator.t;
  mutable r_srtt : float option;
  mutable r_probe : Sim.handle option;  (* the Equation policy's RTT probe *)
}

let receiver_meter r = r.r_meter
let receiver_level r = r.r_level
let receiver_rtt r = r.r_srtt
let receiver_loss_rate r = Tfrc.Loss_estimator.value r.r_loss_est
let receiver_stop r =
  Slot_clock.stop r.r_clock;
  Option.iter Sim.cancel r.r_probe

let receiver_leave r =
  if not (Slot_clock.stopped r.r_clock) then begin
    Flid.depart r.r_topo ~host:r.r_host r.r_client
      ~groups:
        (List.init (max 0 r.r_level) (fun i -> group_addr r.r_config (i + 1)));
    receiver_stop r
  end

let[@hot] effective_level r slot =
  Layering.effective_level r.r_active_since ~level:r.r_level slot

(* Expected packets of a group this slot, falling back to the rate-based
   estimate when even the last packet was lost. *)
let expected r rec_ g =
  let gs = rec_.per_group.(g - 1) in
  match gs.last_seq with
  | Some l -> l + 1
  | None ->
      if gs.count > 0 then gs.count + 1
      else
        let config = r.r_config in
        let rate = Layering.layer_rate config.layering ~group:g in
        let originals =
          rate *. config.slot_duration /. float_of_int (config.packet_size * 8)
        in
        max 1
          (int_of_float (originals *. (1. +. config.repair_fraction)))

let loss_rate r rec_ ~upto =
  let exp_total = ref 0 and got_total = ref 0 in
  for g = 1 to upto do
    exp_total := !exp_total + expected r rec_ g;
    got_total := !got_total + rec_.per_group.(g - 1).count
  done;
  if !exp_total = 0 then 0.
  else
    Float.max 0.
      (float_of_int (!exp_total - !got_total) /. float_of_int !exp_total)

(* Quorum for level l given its expected packet count, mirroring the
   sender's construction. *)
let quorum_for r rec_ ~level =
  let n_l = ref 0 in
  for g = 1 to level do
    n_l := !n_l + expected r rec_ g
  done;
  max 1
    (int_of_float
       (ceil ((1. -. threshold r.r_config ~level) *. float_of_int !n_l)))

let eval_slot r slot rec_ =
  let config = r.r_config in
  let n = config.layering.Layering.groups in
  Metrics.tick "rlm.slots";
  let level_before = r.r_level in
  let g = effective_level r slot in
  if g >= 1 then begin
    let rate_g = loss_rate r rec_ ~upto:g in
    Tfrc.Loss_estimator.update r.r_loss_est ~loss_rate:rate_g;
    let congested = rate_g > threshold config ~level:g in
    if congested then Metrics.tick "rlm.inferred_losses";
    let ladder_target () =
      if congested then begin
        (* Drop to the highest level whose tolerance covers its loss. *)
        let rec descend l =
          if l < 1 then 0
          else if loss_rate r rec_ ~upto:l <= threshold config ~level:l then l
          else descend (l - 1)
        in
        descend (g - 1)
      end
      else if g = r.r_level && g < n && Layering.mask_bit rec_.mask (g + 1)
      then g + 1
      else min g r.r_level
    in
    let equation_target () =
      let p = Tfrc.Loss_estimator.value r.r_loss_est in
      let rtt = Option.value r.r_srtt ~default:0.1 in
      let fair_rate =
        Tfrc.throughput ~packet_bytes:config.packet_size ~rtt ~loss_rate:p
      in
      let desired =
        if fair_rate = infinity then n
        else max 1 (Layering.fair_level config.layering ~rate_bps:fair_rate)
      in
      if desired > g then
        (* Upgrades remain gated by increase-key authorization. *)
        if g = r.r_level && g < n && Layering.mask_bit rec_.mask (g + 1)
        then g + 1
        else min g r.r_level
      else desired
    in
    let target =
      match config.policy with
      | Ladder -> ladder_target ()
      | Equation -> equation_target ()
    in
    (match (config.mode, r.r_client) with
    | Flid.Robust, Some client ->
        (* Reconstruct a key per group of the target subscription.  The
           quorum estimate mirrors the sender's; an estimate off by a
           lost tail merely under-claims. *)
        let pairs = ref [] in
        let reachable = ref 0 in
        (try
           for l = 1 to min target n do
             let key =
               if l = g + 1 then
                 (* Upgrade: the increase key for level g+1 lives in the
                    inc scheme at index g. *)
                 Threshold.reconstruct rec_.inc_recv ~level:g
                   ~quorum:(quorum_for r rec_ ~level:g)
               else
                 Threshold.reconstruct rec_.top_recv ~level:l
                   ~quorum:(quorum_for r rec_ ~level:l)
             in
             match key with
             | Some k ->
                 pairs := (group_addr config l, k) :: !pairs;
                 reachable := l
             | None -> raise Exit
           done
         with Exit -> ());
        if !pairs <> [] then
          Client.subscribe client ~slot:(slot + 2) ~pairs:!pairs;
        let next = !reachable in
        if next = 0 then begin
          Client.session_join client ~group:(group_addr config 1);
          r.r_active_since.(0) <- slot + 3;
          r.r_level <- 1
        end
        else begin
          if next > r.r_level then r.r_active_since.(next - 1) <- slot + 2;
          if next < r.r_level then begin
            let dropped =
              List.init (r.r_level - next) (fun i -> group_addr config (next + i + 1))
            in
            Client.unsubscribe client ~groups:dropped;
            for l = next + 1 to r.r_level do
              r.r_active_since.(l - 1) <- max_int
            done
          end;
          r.r_level <- next
        end
    | Flid.Plain, _ | Flid.Robust, None ->
        let next = if target = 0 then 1 else target in
        if next > r.r_level then begin
          for l = r.r_level + 1 to next do
            Multicast.host_join r.r_topo ~host:r.r_host
              ~group:(group_addr config l);
            r.r_active_since.(l - 1) <- slot + 2
          done
        end
        else if next < r.r_level then
          for l = next + 1 to r.r_level do
            Multicast.host_leave r.r_topo ~host:r.r_host
              ~group:(group_addr config l);
            r.r_active_since.(l - 1) <- max_int
          done;
        r.r_level <- next)
  end;
  let delta = r.r_level - level_before in
  if delta <> 0 then begin
    Metrics.tick "rlm.level_changes";
    Metrics.tick (if delta > 0 then "rlm.joins" else "rlm.leaves") ~by:(abs delta);
    if Tracer.enabled () then
      Tracer.emit ~sim_time:(Sim.now (Topology.sim r.r_topo))
        ~component:"rlm.receiver" ~event:"level" (fun () ->
          [
            ("host", Json.Int r.r_host.Node.id);
            ("level", Json.Int r.r_level);
          ])
  end

let on_data r pkt =
  match pkt.Packet.payload with
  | Rlm_data { session; group; slot; seq; last; repair = _; upgrade_mask;
               top_shares; inc_shares }
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
        if last then gs.last_seq <- Some seq;
        rec_.mask <- rec_.mask lor upgrade_mask;
        Threshold.on_shares rec_.top_recv top_shares;
        Threshold.on_shares rec_.inc_recv
          (List.map (fun (target, share) -> (target - 1, share)) inc_shares)
      end;
      Slot_clock.try_eval clock
  | _ -> ()

let receiver_start ?(at = 0.) ?behavior:_ topo ~host ~prng:_ config =
  let n = config.layering.Layering.groups in
  let r =
    {
      r_config = config;
      r_topo = topo;
      r_host = host;
      r_meter = Meter.create ();
      r_level = 1;
      r_active_since = Array.make n max_int;
      r_clock =
        Slot_clock.create (Topology.sim topo)
          ~slot_duration:config.slot_duration
          ~processing_margin:config.processing_margin ~lanes:n
          ~fresh:(fun () ->
            {
              per_group =
                Array.init n (fun _ -> { count = 0; last_seq = None });
              top_recv = Threshold.receiver_create ~levels:n;
              inc_recv = Threshold.receiver_create ~levels:(max 1 (n - 1));
              mask = 0;
            });
      r_client =
        (match config.mode with
        | Flid.Robust -> Some (Client.create ~width:31 topo ~host)
        | Flid.Plain -> None);
      r_loss_est = Tfrc.Loss_estimator.create ();
      r_srtt = None;
      r_probe = None;
    }
  in
  Slot_clock.bind r.r_clock ~span:(effective_level r) ~eval:(eval_slot r);
  Flid.sample_series ~prefix:"rlm" ~id:config.id ~host r.r_meter
    [ ("level", fun () -> float_of_int r.r_level) ];
  (match config.policy with
  | Equation ->
      (* RTT probing toward the session source, one probe per second. *)
      Mux.add_handler (Mux.of_node host) (fun pkt ->
          match pkt.Packet.payload with
          | Rtt_echo { session; receiver; sent_at }
            when session = config.id && receiver = host.Node.id ->
              let sample = Sim.now (Topology.sim topo) -. sent_at in
              (r.r_srtt <-
                (match r.r_srtt with
                | None -> Some sample
                | Some srtt -> Some ((0.875 *. srtt) +. (0.125 *. sample))));
              true
          | _ -> false);
      r.r_probe <-
        Some
          (Sim.every (Topology.sim topo) ~start:(at +. 0.1) ~period:1.0
             (fun () ->
               match Topology.group_source topo (group_addr config 1) with
               | Some source ->
                   Node.originate host
                     (Packet.make ~src:host.Node.id
                        ~dst:(Packet.Unicast source.Node.id) ~size:40
                        (Rtt_probe
                           {
                             session = config.id;
                             receiver = host.Node.id;
                             sent_at = Sim.now (Topology.sim topo);
                           }))
               | None -> ()))
  | Ladder -> ());
  Flid.attach ~at topo ~host r.r_client
    ~groups:(List.init n (fun i -> group_addr config (i + 1)))
    (on_data r);
  r
