(** Oversubscribed congestion control: a cumulative layered session
    whose receivers are driven by an EWMA of the per-slot ECN mark
    fraction rather than FLID's loss-per-slot rule.

    The wire format and the sender are FLID's ({!Flid.Data} packets,
    slot-clocked layered groups, DELTA key material for slot s+2
    distributed through SIGMA): Oversub is a receiver-side control law
    over that machinery.  Per slot the receiver computes the fraction
    of its arrivals that carried an ECN mark (a lost packet saturates
    the signal to 1), folds it into an EWMA [g], and then

    - if [g > target]: multiplicative decrease — the rate variable is
      scaled by [1 - (g - target) * md] and the probe quantum resets;
      the subscription drops to the highest level whose cumulative rate
      fits (possibly several levels at once, via DELTA decrease keys);
    - otherwise: exponential probing — the rate grows by an additive
      quantum that doubles every consecutive uncongested slot (capped at
      [2^max_exp]), and the receiver adds a layer when the rate crosses
      the next cumulative rate and the slot's mask authorizes it.

    Under the DELTA + SIGMA + ECN defence this protocol stresses the
    ECN-scrubbing edge far harder than FLID-DS: a marked packet's
    component field is scrubbed by the trusted edge, so any marked slot
    breaks top-key reconstruction and forces the decrease-key path even
    when the EWMA alone would have held the level. *)

type config = {
  flid : Flid.config;  (** wire format, slot clock and key machinery *)
  alpha : float;  (** EWMA gain (default 0.5) *)
  target : float;  (** mark-fraction target (default 0.3) *)
  md : float;  (** multiplicative-decrease factor (default 0.5) *)
  ai_bps : float;  (** base additive-increase quantum (default 10 kbps) *)
  max_exp : int;  (** probe-quantum doubling cap (default 6) *)
}

val make_config :
  ?packet_size:int ->
  ?width:int ->
  ?upgrade_period:(int -> int) ->
  ?processing_margin:float ->
  ?alpha:float ->
  ?target:float ->
  ?md:float ->
  ?ai_bps:float ->
  ?max_exp:int ->
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:Flid.mode ->
  unit ->
  config
(** @raise Invalid_argument on out-of-range control parameters (alpha
    and md in (0, 1], target in (0, 1), positive ai_bps). *)

val group_addr : config -> int -> int
(** Address of group [g] (1-based). *)

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

(** {1 Sender}

    The sender is FLID's, byte for byte: same slot tick, same DELTA
    precomputation, same SIGMA tuple distribution. *)

type sender = Flid.sender

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  sender

val sender_stats : sender -> Slot_sender.stats
val sender_stop : sender -> unit

(** {1 Receiver}

    The receiver is {!Slot_receiver} with FLID's key scheme running the
    EWMA law: loss is missing packets only (a marked packet arrived and
    counts toward the mark fraction), and the chassis sheds or adds
    levels as the rate variable asks. *)

type receiver

val receiver_start :
  ?at:float ->
  ?behavior:Slot_receiver.behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver
(** Joins the minimal group at [at] (SIGMA session-join in [Robust]
    mode, IGMP otherwise) and runs the EWMA control law every slot.  A
    misbehaving [behavior] acts as on a FLID receiver; [prng] is drawn
    from only while the receiver is adversarial. *)

val receiver_meter : receiver -> Mcc_util.Meter.t
(** Bytes of session data reaching the receiver's host. *)

val receiver_level : receiver -> int
(** Current subscription level. *)

val mark_ewma : receiver -> float
(** Current EWMA of the mark fraction. *)

val congestion_events : receiver -> int
(** Slots that observed a congestion signal (loss or at least one
    mark). *)

val decrease_events : receiver -> int
(** Slots on which the EWMA exceeded the target and the rate variable
    was multiplicatively decreased. *)

val receiver_leave : receiver -> unit
(** Orderly departure: leave every subscribed group at once (an
    unsubscription message under SIGMA, IGMP leaves otherwise) and
    stop. *)
