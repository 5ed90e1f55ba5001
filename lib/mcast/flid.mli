(** FLID-DL and FLID-DS: cumulative layered multicast congestion
    control, without and with the paper's DELTA + SIGMA protection.

    A session has N groups carrying layers at multiplicatively growing
    cumulative rates.  Time is divided into sender-driven slots; every
    data packet names its (group, slot, sequence) coordinates, flags the
    group's last packet of the slot, and carries the slot's upgrade
    authorization mask.  A receiver that loses any packet of its
    subscription during a slot is congested and drops its top layer; an
    uncongested receiver may add a layer when the mask authorizes an
    upgrade to the next level (paper Section 3.1.1 subscription rules).

    In [Robust] mode ([FLID-DS]) every packet additionally carries DELTA
    component and decrease fields for the keys of slot s+2, the sender
    distributes address-key tuples to edge routers through SIGMA special
    packets, and receivers must present reconstructed keys to their edge
    router each slot.  In [Plain] mode ([FLID-DL]) group membership is
    plain IGMP-style join/leave, which is what the inflated-subscription
    attack exploits. *)

type mode = Slot_sender.mode = Plain | Robust

type config = {
  id : int;  (** session id *)
  base_group : int;  (** address of group 1; group g is base + g - 1 *)
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;  (** data bytes per packet (the paper's 576) *)
  width : int;  (** DELTA key width in bits *)
  mode : mode;
  upgrade_period : int -> int;
      (** slots between upgrade authorizations to level g *)
  processing_margin : float;
      (** Evaluation is normally self-clocked: a slot is processed as
          soon as every subscribed group delivered its flagged last
          packet or a packet of a later slot (the FIFO path guarantees
          nothing is still in flight).  This margin — a fraction of a
          slot — is the wall-clock fallback for groups that went
          completely silent; packets arriving after it count as lost,
          as in FLID-DL. *)
  fec_scheme : Mcc_sigma.Fec.scheme;
}

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
  mode:mode ->
  unit ->
  config
(** The default upgrade period to level g is
    [max 2 (ceil (R_g / R_1))] slots: probing slows multiplicatively at
    higher levels.  Default fallback margin 0.9 — larger than the worst
    drop-tail queueing delay (two RTTs with the paper's buffers), so a
    merely-delayed slot is never misread as silence.  FEC
    [Repetition 2]. *)

val group_addr : config -> int -> int
(** Address of group [g] (1-based). *)

(** {2 Protocol registry entry points} (see {!Protocol.S}) *)

val configure :
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:mode ->
  config
(** [make_config] with every default. *)

val default_slot : mode -> float
(** The paper's slot durations (Section 5.1): 500 ms for FLID-DL
    ([Plain]), 250 ms for FLID-DS ([Robust]). *)

val default_upgrade_period : Layering.t -> int -> int
(** [max 2 (ceil (R_g / R_1))] slots between authorizations to level g;
    shared with the other multi-group protocols in this library. *)

type Mcc_net.Payload.t +=
  | Data of {
      session : int;
      group : int;  (** 1-based group index *)
      slot : int;
      seq : int;  (** per-group sequence within the slot, from 0 *)
      last : bool;  (** group's final packet of the slot *)
      upgrade_mask : int;  (** bit g-1 set: upgrade to level g authorized *)
    }
(** In [Robust] mode the DELTA fields travel in the packet's header
    words ({!Mcc_net.Packet.t}'s [delta_component] and
    [delta_decrease]), not in the payload, so an edge router rewrites a
    branch copy's fields without allocating a new payload. *)

(** {1 Sender} {!Slot_sender} with the layered XOR scheme
    ({!Mcc_delta.Layered} fields in the header words). *)

type sender

val sender_session : config -> Slot_sender.session
(** The session as {!Slot_sender} and {!Slot_receiver} see it. *)

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  sender
(** Registers the session's groups with the topology and begins slot
    ticking and per-group emission at [at] (default 0). *)

val sender_stats : sender -> Slot_sender.stats
val sender_stop : sender -> unit

val sender_keys_for_slot :
  sender -> slot:int -> Mcc_delta.Layered.keys option
(** Keys guarding [slot] (Robust mode; the four most recently guarded
    slots are retained).  Exposed for tests. *)

(** {1 Receiver} {!Slot_receiver} with the layered XOR scheme and
    FLID-DL's law. *)

val keys : config -> Mcc_delta.Layered.receiver Slot_receiver.scheme
(** The session's receive-side key scheme: {!Data} packets,
    {!Slot_receiver.layered} evidence. *)

val step_law :
  name:string ->
  marks_lost:bool ->
  groups:int ->
  settle:(unit -> int -> unit) ->
  unit Slot_receiver.law
(** FLID-DL's rule (paper Section 3.1.1), stateless: a slot that lost
    any packet of the effective subscription asks for one level less;
    a clean, fully effective one asks for one more when the mask
    authorizes it.  [name.inferred_losses] counts lossy slots.  The
    replicated receiver's switch follows the same rule. *)

type receiver = (unit, Mcc_delta.Layered.receiver) Slot_receiver.t
(** A FLID-DL receiver: an ECN-marked packet counts as lost. *)

val receiver_start :
  ?at:float ->
  ?behavior:Slot_receiver.behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver
(** See {!Slot_receiver.start}. *)

val receiver_meter : receiver -> Mcc_util.Meter.t
val receiver_level : receiver -> int
val level_series : receiver -> Mcc_util.Series.t
val congestion_events : receiver -> int
val receiver_leave : receiver -> unit
