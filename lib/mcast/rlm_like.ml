module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Shamir = Mcc_util.Shamir
module Threshold = Mcc_delta.Threshold
module Mux = Mcc_transport.Mux
module Metrics = Mcc_obs.Metrics

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

let session config =
  { Slot_sender.id = config.id; base_group = config.base_group;
    layering = config.layering; slot_duration = config.slot_duration;
    packet_size = config.packet_size; upgrade_period = config.upgrade_period }

let sender_start ?at topo ~node ~prng config =
  let s =
    Slot_sender.start ?at topo ~node ~prng
      ~rate:(fun g -> Layering.layer_rate config.layering ~group:g)
      ~repair_fraction:config.repair_fraction (session config) (scheme config)
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

(* Expected packets of a group this slot, falling back to the rate-based
   estimate when even the last packet was lost. *)
let expected config (rec_ : Slot_receiver.slot_rec) g =
  let ls = rec_.Slot_receiver.lanes.(g - 1) in
  if ls.Slot_receiver.last_seq >= 0 then ls.Slot_receiver.last_seq + 1
  else if ls.Slot_receiver.count > 0 then ls.Slot_receiver.count + 1
  else
    let rate = Layering.layer_rate config.layering ~group:g in
    let originals =
      rate *. config.slot_duration /. float_of_int (config.packet_size * 8)
    in
    max 1 (int_of_float (originals *. (1. +. config.repair_fraction)))

let loss_rate config rec_ ~upto =
  let exp_total = ref 0 and got_total = ref 0 in
  for g = 1 to upto do
    exp_total := !exp_total + expected config rec_ g;
    got_total :=
      !got_total + rec_.Slot_receiver.lanes.(g - 1).Slot_receiver.count
  done;
  if !exp_total = 0 then 0.
  else
    Float.max 0.
      (float_of_int (!exp_total - !got_total) /. float_of_int !exp_total)

(* Quorum for level l given its expected packet count, mirroring the
   sender's construction. *)
let quorum_for config rec_ ~level =
  let n_l = ref 0 in
  for g = 1 to level do
    n_l := !n_l + expected config rec_ g
  done;
  max 1
    (int_of_float (ceil ((1. -. threshold config ~level) *. float_of_int !n_l)))

(* A slot's shares: the level keys', and the increase keys' indexed by
   the level they extend (key l guards level l+1). *)
type shares = { top : Threshold.receiver; inc : Threshold.receiver }

(* The Shamir threshold scheme: the level the keys reach is exactly the
   prefix of the target subscription whose keys reconstruct.  The
   quorum estimate mirrors the sender's; an estimate off by a lost tail
   merely under-claims. *)
let keys config =
  let n = config.layering.Layering.groups in
  let slot_end shares rec_ ~level:_ ~effective:g ~lost:_ v =
    let reconstruct l =
      if l = g + 1 then
        (* Upgrade: the increase key for level g+1 lives in the inc
           scheme at index g. *)
        Threshold.reconstruct shares.inc ~level:g
          ~quorum:(quorum_for config rec_ ~level:g)
      else
        Threshold.reconstruct shares.top ~level:l
          ~quorum:(quorum_for config rec_ ~level:l)
    in
    let rec prefix l keys =
      if l > min v.Slot_receiver.desired n then (l - 1, keys)
      else
        match reconstruct l with
        | Some k -> prefix (l + 1) ((l, k) :: keys)
        | None -> (l - 1, keys)
    in
    let level, keys = prefix 1 [] in
    { Slot_receiver.level; keys }
  in
  {
    Slot_receiver.width = 31;
    holding = Cumulative;
    read =
      (fun payload c ->
        match payload with
        | Rlm_data { session; group; slot; seq; last; upgrade_mask; _ }
          when session = config.id ->
            c.Slot_receiver.group <- group;
            c.slot <- slot;
            c.seq <- seq;
            c.last <- last;
            c.mask <- upgrade_mask;
            true
        | _ -> false);
    evidence =
      (fun () ->
        {
          top = Threshold.receiver_create ~levels:n;
          inc = Threshold.receiver_create ~levels:(max 1 (n - 1));
        });
    add =
      (fun shares _ pkt ->
        match pkt.Packet.payload with
        | Rlm_data { top_shares; inc_shares; _ } ->
            Threshold.on_shares shares.top top_shares;
            Threshold.on_shares shares.inc
              (List.map (fun (target, share) -> (target - 1, share)) inc_shares)
        | _ -> ());
    slot_end;
    leave_on_rejoin = false;
    knock = false;
  }

(* The law's state: the TFRC loss-event estimator and, for the Equation
   policy, the probed round-trip time. *)
type state = {
  c : config;
  loss_est : Tfrc.Loss_estimator.t;
  mutable srtt : float option;
  mutable probe : Sim.handle option;
}

(* Ladder: down to the highest level whose tolerance covers its loss;
   Equation: the level the TCP equation's rate sustains.  Upgrades are
   one authorized step from a fully effective subscription; a clean
   slot otherwise asks for no more than the effective level. *)
let judge st rec_ ~level ~effective:g ~any_lost:_ =
  let config = st.c in
  let n = config.layering.Layering.groups in
  let rate_g = loss_rate config rec_ ~upto:g in
  Tfrc.Loss_estimator.update st.loss_est ~loss_rate:rate_g;
  let congested = rate_g > threshold config ~level:g in
  if congested then Metrics.tick "rlm.inferred_losses";
  let step_up () =
    if g = level && g < n && Layering.mask_bit rec_.Slot_receiver.mask (g + 1)
    then g + 1
    else min g level
  in
  let desired =
    match config.policy with
    | Ladder ->
        if congested then begin
          let rec descend l =
            if l < 1 then 0
            else if loss_rate config rec_ ~upto:l <= threshold config ~level:l
            then l
            else descend (l - 1)
          in
          descend (g - 1)
        end
        else step_up ()
    | Equation ->
        let p = Tfrc.Loss_estimator.value st.loss_est in
        let rtt = Option.value st.srtt ~default:0.1 in
        let fair_rate =
          Tfrc.throughput ~packet_bytes:config.packet_size ~rtt ~loss_rate:p
        in
        let desired =
          if fair_rate = infinity then n
          else max 1 (Layering.fair_level config.layering ~rate_bps:fair_rate)
        in
        if desired > g then step_up () else desired
  in
  {
    Slot_receiver.signal = congested;
    desired;
    may_upgrade = desired > level;
    ceiling = max_int;
  }

let law =
  {
    Slot_receiver.name = "rlm";
    marks_lost = false;
    judge;
    shed = (fun _ ~level:_ -> ());
    settle = Slot_receiver.count_moves "rlm";
    stop = (fun st -> Option.iter Sim.cancel st.probe);
    attrs = (fun _ -> []);
    gauges = [];
  }

type receiver = (state, shares) Slot_receiver.t

let receiver_start ?(at = 0.) ?behavior topo ~host ~prng config =
  let st =
    { c = config; loss_est = Tfrc.Loss_estimator.create (); srtt = None;
      probe = None }
  in
  (match config.policy with
  | Equation ->
      (* RTT probing toward the session source, one probe per second. *)
      Mux.add_handler (Mux.of_node host) (fun pkt ->
          match pkt.Packet.payload with
          | Rtt_echo { session; receiver; sent_at }
            when session = config.id && receiver = host.Node.id ->
              let sample = Sim.now (Topology.sim topo) -. sent_at in
              st.srtt <-
                (match st.srtt with
                | None -> Some sample
                | Some srtt -> Some ((0.875 *. srtt) +. (0.125 *. sample)));
              true
          | _ -> false);
      st.probe <-
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
  Slot_receiver.start ~at ?behavior topo ~host ~prng ~mode:config.mode
    ~processing_margin:config.processing_margin (session config) (keys config)
    law st

let receiver_meter = Slot_receiver.meter
let receiver_level = Slot_receiver.level
let receiver_rtt r = (Slot_receiver.state r).srtt
let receiver_loss_rate r =
  Tfrc.Loss_estimator.value (Slot_receiver.state r).loss_est
let receiver_leave = Slot_receiver.leave
