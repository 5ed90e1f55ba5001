(** One signature for every multicast congestion-control protocol of
    this library, so session builders dispatch through a first-class
    module instead of matching on the protocol.  {!Flid}, {!Rlm_like},
    {!Replicated_proto} and {!Oversub} satisfy it as they are.

    Adding a protocol is one module satisfying {!S} (for a cumulative
    layered one, a receiver law run by {!Flid.chassis_start}) plus one
    entry in [Mcc_core.Spec.protocols]. *)

module type S = sig
  type config
  type sender
  type receiver

  val configure :
    id:int ->
    base_group:int ->
    layering:Layering.t ->
    slot_duration:float ->
    mode:Flid.mode ->
    config
  (** The protocol's defaults for everything else. *)

  val default_slot : Flid.mode -> float
  (** Slot duration when a builder is not given one. *)

  val group_addr : config -> int -> int
  (** Address of group [g] (1-based). *)

  val sender_start :
    ?at:float ->
    Mcc_net.Topology.t ->
    node:Mcc_net.Node.t ->
    prng:Mcc_util.Prng.t ->
    config ->
    sender

  val receiver_start :
    ?at:float ->
    ?behavior:Flid.behavior ->
    Mcc_net.Topology.t ->
    host:Mcc_net.Node.t ->
    prng:Mcc_util.Prng.t ->
    config ->
    receiver

  val receiver_meter : receiver -> Mcc_util.Meter.t
  (** Bytes of session data reaching the receiver's host. *)

  val receiver_leave : receiver -> unit
  (** Orderly departure: leave the subscribed groups and stop. *)
end
