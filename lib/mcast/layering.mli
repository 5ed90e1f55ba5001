(** Rate structure of a multi-group session.

    The paper's sessions are cumulative layered: subscription level g
    receives groups 1..g at cumulative rate R_g = r * m^(g-1) (Eq. 10),
    so group g alone carries R_g - R_(g-1).  The same record describes a
    replicated session, where level g is the single group g at rate
    R_g. *)

type t = {
  groups : int;  (** N *)
  min_rate_bps : float;  (** r: rate of group 1 / the minimal level *)
  factor : float;  (** m: multiplicative growth per level *)
}

val make : groups:int -> min_rate_bps:float -> factor:float -> t
(** @raise Invalid_argument on non-positive parameters or factor <= 1. *)

val cumulative_rate : t -> level:int -> float
(** R_g; [level] in 1..N.  [cumulative_rate ~level:0] is 0. *)

val layer_rate : t -> group:int -> float
(** R_g - R_(g-1): what group g alone transmits in a layered session. *)

val fair_level : t -> rate_bps:float -> int
(** The highest level whose cumulative rate fits within [rate_bps];
    0 if even the minimal level exceeds it. *)

val top_rate : t -> float
(** R_N, the session's full cumulative rate. *)

val effective_level : int array -> level:int -> int -> int
(** [effective_level active_since ~level s]: the largest [e <= level]
    such that every group [g <= e] is evaluated from a slot
    [active_since.(g-1) <= s] on.  Partial slots of freshly joined
    groups must not count as losses; 0 while even group 1 is not. *)

val mask_bit : int -> int -> bool
(** [mask_bit mask g]: whether an upgrade authorization mask authorizes
    level [g] (bit [g - 1]). *)

val upgrade_mask : t -> period:(int -> int) -> int -> int
(** The authorization mask of a slot: level [g >= 2] is authorized in
    slot [s] when [(s + g) mod period g = 0], so upgrades to level [g]
    come every [period g] slots, staggered across levels. *)
