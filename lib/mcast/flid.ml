module Payload = Mcc_net.Payload
module Key = Mcc_delta.Key
module Layered = Mcc_delta.Layered
module Metrics = Mcc_obs.Metrics

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

let keys config =
  Slot_receiver.layered ~width:config.width
    ~groups:config.layering.Layering.groups ~read:(fun payload c ->
      match payload with
      | Data { session; group; slot; seq; last; upgrade_mask }
        when session = config.id ->
          c.Slot_receiver.group <- group;
          c.slot <- slot;
          c.seq <- seq;
          c.last <- last;
          c.mask <- upgrade_mask;
          true
      | _ -> false)

(* FLID-DL's rule (paper Section 3.1.1): a slot that lost any packet of
   the effective subscription drops the top layer; a clean slot adds a
   layer when the mask authorizes it.  On the key path a congested slot
   may keep its level through the increase key when the loss is
   confined to the top group (the contradiction resolution), hence no
   ceiling. *)
let step_law ~name ~marks_lost ~groups ~settle =
  let inferred = name ^ ".inferred_losses" in
  {
    Slot_receiver.name;
    marks_lost;
    judge =
      (fun _ rec_ ~level ~effective ~any_lost ->
        if any_lost then Metrics.tick inferred;
        let desired =
          if any_lost then max 1 (level - 1)
          else if
            effective = level && level < groups
            && Layering.mask_bit rec_.Slot_receiver.mask (level + 1)
          then level + 1
          else level
        in
        {
          Slot_receiver.signal = any_lost;
          desired;
          may_upgrade = effective = level;
          ceiling = max_int;
        });
    shed = (fun _ ~level:_ -> ());
    settle;
    stop = ignore;
    attrs = (fun _ -> []);
    gauges = [];
  }

type receiver = (unit, Layered.receiver) Slot_receiver.t

(* ECN-marked packets count as lost: their DELTA components were
   scrubbed. *)
let receiver_start ?at ?behavior topo ~host ~prng config =
  Slot_receiver.start ?at ?behavior topo ~host ~prng ~mode:config.mode
    ~processing_margin:config.processing_margin (sender_session config)
    (keys config)
    (step_law ~name:"flid" ~marks_lost:true
       ~groups:config.layering.Layering.groups
       ~settle:(Slot_receiver.count_moves "flid"))
    ()

let receiver_meter = Slot_receiver.meter
let receiver_level = Slot_receiver.level
let level_series = Slot_receiver.series
let congestion_events = Slot_receiver.congestion_events
let receiver_leave = Slot_receiver.leave
