(** The sender of every protocol in this library, parameterised by the
    protocol's DELTA instantiation.

    The layered (paper Figure 4), replicated (Figure 5) and Shamir
    threshold (Eqs. 7–9) instantiations rest on one sender property: a
    slot's key material is drawn once, shipped ahead to the SIGMA edge
    routers, and then carried in components on an unchanged
    transmission pattern.  So one tick per slot decides the upgrade
    mask and each group's packet count (credit pacing at the group's
    rate, plus repairs), draws the key material guarding slot+2 and
    distributes its tuples (Robust mode), and posts the slot's packets,
    de-phased across groups, to one persistent emitter per group.  A
    {!scheme} is what differs between protocols. *)

type mode = Plain | Robust

(** What the sender needs of a session's configuration. *)
type session = {
  id : int;
  base_group : int;  (** address of group 1; group g is base + g - 1 *)
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;  (** data bytes per packet, DELTA overhead excluded *)
  upgrade_period : int -> int;
}

(** The packet being emitted, one per sender, reused: the sender sets
    its coordinates and resets its DELTA fields before each
    [payload] call; the scheme writes the fields it carries. *)
type draft = {
  mutable group : int;
  mutable slot : int;
  mutable seq : int;  (** per-group sequence within the slot, from 0 *)
  mutable last : bool;  (** the group's final packet of the slot *)
  mutable repair : bool;  (** an added redundancy packet *)
  mutable mask : int;  (** the slot's upgrade authorization mask *)
  mutable component : Mcc_delta.Key.t;  (** header word, or [Key.none] *)
  mutable decrease : Mcc_delta.Key.t;  (** header word, or [Key.none] *)
  mutable delta_bytes : int;  (** DELTA overhead on the wire *)
}

(** A DELTA instantiation with per-slot key material ['k]. *)
type 'k scheme = {
  width : int;  (** key width in bits, as SIGMA ships the keys *)
  fec : Mcc_sigma.Fec.scheme;  (** protection of the SIGMA packets *)
  draw : (Mcc_util.Prng.t -> mask:int -> counts:int array -> 'k) option;
      (** Per tick: the key material guarding slot+2, given the slot's
          mask and per-group packet counts (the sender's array: copy it
          to keep it).  [None] in Plain mode. *)
  keys : 'k -> mask:int -> group:int -> Mcc_delta.Key.t list;
      (** The keys of a group's SIGMA tuple. *)
  payload : 'k option -> draft -> Mcc_net.Payload.t;
      (** Per packet, at its emission instant, even after {!stop} (so
          random fields advance the key PRNG as planned). *)
}

(** The sender side of {!Mcc_delta.Layered} and {!Mcc_delta.Replicated}. *)
module type Xor = sig
  type sender
  type keys

  val sender_create :
    prng:Mcc_util.Prng.t -> width:int -> groups:int -> upgrades:bool array ->
    sender

  val sender_keys : sender -> keys
  val valid_keys : keys -> group:int -> Mcc_delta.Key.t list
  val decrease_field : sender -> group:int -> Mcc_delta.Key.t
  val next_component : sender -> group:int -> last:bool -> Mcc_delta.Key.t
end

val xor :
  (module Xor with type sender = 'k) ->
  mode ->
  width:int ->
  fec:Mcc_sigma.Fec.scheme ->
  payload:(draft -> Mcc_net.Payload.t) ->
  'k scheme
(** An XOR scheme: tuples hold each group's valid keys, and packets
    carry a component and decrease field in their header words.
    [payload] builds the protocol's payload from the draft. *)

type stats = {
  mutable slots : int;
  mutable data_bits : int;  (** DELTA overhead excluded *)
  mutable delta_bits : int;  (** DELTA overhead: fields or shares *)
  mutable sigma_payload_bits : int;
  mutable sigma_header_bits : int;
  mutable sigma_packets : int;
  mutable authorizations : int array;
      (** [authorizations.(g-1)]: slots that authorized an upgrade to g *)
  mutable fec_expansion : float;  (** z of the last slot's encoding *)
}

type 'k t

val start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  rate:(int -> float) ->
  repair_fraction:float ->
  session ->
  'k scheme ->
  'k t
(** Registers the groups and ticks from [at] (default 0) inside the
    ["flid"] profiler span.  Group [g] carries [rate g] bit/s, plus
    [ceil (repair_fraction * originals)] repair packets per slot. *)

val stats : 'k t -> stats
val stop : 'k t -> unit

val keys_for_slot : 'k t -> slot:int -> 'k option
(** The key material guarding [slot]; the four most recently guarded
    slots are retained. *)
