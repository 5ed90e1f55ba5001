module Payload = Mcc_net.Payload
module Replicated = Mcc_delta.Replicated

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

type receiver = (unit, Replicated.receiver) Slot_receiver.t

let keys (config : config) =
  Slot_receiver.replicated ~width:config.width
    ~groups:config.layering.Layering.groups ~read:(fun payload c ->
      match payload with
      | Rep_data { session; group; slot; seq; last; upgrade_mask }
        when session = config.id ->
          c.Slot_receiver.group <- group;
          c.slot <- slot;
          c.seq <- seq;
          c.last <- last;
          c.mask <- upgrade_mask;
          true
      | _ -> false)

(* One group at a time: down one group on a lossy slot, up one when
   authorized.  Only the held group's packets count toward loss, and an
   ECN mark is not a loss. *)
let receiver_start ?at ?behavior topo ~host ~prng (config : config) =
  Slot_receiver.start ?at ?behavior topo ~host ~prng ~mode:config.mode
    ~processing_margin:config.processing_margin (Flid.sender_session config)
    (keys config)
    (Flid.step_law ~name:"rep" ~marks_lost:false
       ~groups:config.layering.Layering.groups ~settle:(fun () _ -> ()))
    ()

let receiver_meter = Slot_receiver.meter
let receiver_level = Slot_receiver.level
let group_series = Slot_receiver.series
let receiver_leave = Slot_receiver.leave
