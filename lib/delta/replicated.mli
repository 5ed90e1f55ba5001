(** DELTA instantiation for replicated multicast protocols — Figure 5 of
    the paper.  Each subscription level is a single group carrying the
    same content at a different rate, so keys are per-group:

    - top key      [lambda_g] = XOR of the component fields of the
                                packets of group g alone (Eq. 6);
    - decrease key [delta_(g-1)] = nonce in the decrease field of every
                                packet of group g;
    - increase key [iota_g]  = XOR of the components of group g-1
                                (Eq. 6), when an upgrade is authorized. *)

type keys = {
  top : Key.t array;
  decrease : Key.t array;  (** [decrease.(g-1)] = delta_g, g = 1..N-1 *)
  increase : Key.t option array;
}

val valid_keys : keys -> group:int -> Key.t list

type sender

val sender_create :
  prng:Mcc_util.Prng.t ->
  width:int ->
  groups:int ->
  upgrades:bool array ->
  sender

val sender_keys : sender -> keys
val next_component : sender -> group:int -> last:bool -> Key.t
val decrease_field : sender -> group:int -> Key.t

type receiver

val receiver_create : groups:int -> receiver

val on_packet :
  receiver -> group:int -> component:Key.t -> decrease:Key.t -> unit
(** As {!Layered.on_packet}: [decrease] is {!Key.none} when absent. *)

type outcome = { next_group : int; key : Key.t option }
(** [next_group = 0] means the receiver left the session. *)

val slot_end :
  receiver -> group:int -> congested:bool -> upgrade_to:(int -> bool) -> outcome
(** Figure 5 receiver: uncongested receivers reconstruct their group's
    top key (and move up with the increase key when authorized);
    congested receivers fall back to the decrease field of their current
    group, which names the key of group g-1. *)
