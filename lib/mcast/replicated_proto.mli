(** Replicated multicast congestion control (paper Section 3.1.2,
    "Session structure", and Figure 5).

    Each group of the session carries the {e same} content at a
    different rate (group 1 slowest, group N fastest) and a receiver
    subscribes to exactly one group: it switches down one group when
    congested, and up one group when uncongested and authorized.  In
    [Robust] mode the session is protected by the replicated DELTA
    instantiation — per-group top keys, decrease fields naming the next
    lower group's key, increase keys equal to the lower group's
    component XOR — enforced by the same generic SIGMA agent that
    guards FLID-DS. *)

type config = Flid.config
(** FLID's parameters; the layering's level g is the single group g at
    rate R_g. *)

val make_config :
  ?packet_size:int ->
  ?width:int ->
  ?upgrade_period:(int -> int) ->
  ?processing_margin:float ->
  ?fec_scheme:Mcc_sigma.Fec.scheme ->
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:Flid.mode ->
  unit ->
  config
(** {!Flid.make_config}. *)

val group_addr : config -> int -> int

(** {2 Protocol registry entry points} (see {!Protocol.S}) *)

val configure :
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:Flid.mode ->
  config
(** [make_config] with every default. *)

val default_slot : Flid.mode -> float
(** FLID-DS's slot, in either mode. *)

type Mcc_net.Payload.t +=
  | Rep_data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      upgrade_mask : int;
    }
(** As {!Flid.Data}: in [Robust] mode the DELTA fields travel in the
    packet's header words. *)

(** {1 Sender} {!Slot_sender} with the replicated XOR scheme; group g
    carries the whole content at the cumulative rate R_g. *)

type sender

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  sender

val sender_stats : sender -> Slot_sender.stats
val sender_stop : sender -> unit

(** {1 Receiver} {!Slot_receiver} with the replicated XOR scheme on a
    single-group holding and FLID's step rule as its switch: only the
    held group's packets count toward loss (an ECN mark is none) and
    close its slots. *)

type receiver

val receiver_start :
  ?at:float ->
  ?behavior:Slot_receiver.behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver

val receiver_meter : receiver -> Mcc_util.Meter.t

val receiver_level : receiver -> int
(** The single group currently subscribed. *)

val group_series : receiver -> Mcc_util.Series.t

val receiver_leave : receiver -> unit
(** Orderly departure: leave the subscribed group (every group, for a
    plain receiver that inflated) at once — an unsubscription message
    under SIGMA, IGMP leaves otherwise — and stop. *)
