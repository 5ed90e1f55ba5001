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
(** The slot sender's view of a configuration. *)

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

(** {1 Receivers} *)

type submission = {
  sub_slot : int;  (** the guarded slot the pairs were submitted for *)
  sub_pairs : (int * Mcc_delta.Key.t) list;  (** (group address, key) *)
}

type adv_ctx = {
  actx_time : float;  (** simulated now *)
  actx_slot : int;  (** the guarded slot being subscribed (s + 2) *)
  actx_entitled : (int * Mcc_delta.Key.t) list;
      (** (group address, key) pairs the receiver honestly reconstructed
          for this slot *)
  actx_groups : int list;  (** every group address of the session *)
  actx_fresh_key : unit -> Mcc_delta.Key.t;
      (** a random w-bit key drawn from the receiver's own PRNG *)
  actx_history : submission list;
      (** the receiver's past honest submissions, newest first (bounded
          to 16): raw material for stale replay *)
}
(** What a receiver-side adversary sees each time the honest protocol
    would submit keys to the edge router. *)

type adversary = {
  adv_label : string;
  adv_active : time:float -> bool;
      (** whether the receiver misbehaves at [time]; re-evaluated every
          slot, so on–off (pulse) strategies simply gate on the clock.
          While inactive the receiver is indistinguishable from an
          honest one. *)
  adv_submit : adv_ctx -> submission list;
      (** the submissions actually sent while active, in place of the
          honest one (Robust mode; a [Plain] misbehaving receiver just
          IGMP-joins every group) *)
}
(** A pluggable receiver-side adversary.  [Mcc_attack.Strategy] builds
    these; {!inflation_adversary} is the canonical example. *)

type behavior =
  | Well_behaved
  | Inflate_after of float
      (** misbehave from the given time on: a [Plain] receiver joins
          every group; a [Robust] receiver submits its eligible keys
          plus random guesses for all higher groups.  Sugar: normalised
          to [Adversarial (inflation_adversary ~at)] at
          {!receiver_start}. *)
  | Adversarial of adversary

(** {2 Membership plumbing shared by every receiver}

    [client] is the receiver's SIGMA client: present exactly in
    [Robust] mode; without one, membership is plain IGMP. *)

val attach :
  ?at:float ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  Mcc_sigma.Client.t option ->
  groups:int list ->
  (Mcc_net.Packet.t -> unit) ->
  unit
(** Delivers the session's [groups] to the handler on [host], and at
    [at] (default 0) joins the first (minimal) group: a SIGMA
    session-join, or an IGMP join. *)

val depart :
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  Mcc_sigma.Client.t option ->
  groups:int list ->
  unit
(** Leaves [groups] at once: one SIGMA unsubscription, or IGMP
    leaves. *)

val sample_series :
  prefix:string ->
  id:int ->
  host:Mcc_net.Node.t ->
  Mcc_util.Meter.t ->
  (string * (unit -> float)) list ->
  unit
(** Registers a receiver's sampled series (no-op unless sampling is
    on): [<prefix>.s<id>.h<host>.goodput_kbps] from the meter, then one
    gauge per [(suffix, read)]. *)

val inflation_adversary : at:float -> adversary
(** The paper's Figure 1 misbehaviour: from [at] on, claim every group
    of the session, guessing a random key for each group the receiver
    is not eligible for.  The single implementation behind
    [Inflate_after] and the attack subsystem's persistent-inflation
    strategy. *)

val inflation_guesses : adv_ctx -> (int * Mcc_delta.Key.t) list
(** The guessed (group address, key) pairs [inflation_adversary]
    appends: one fresh random key per group not covered by
    [actx_entitled], in group order.  Building block for budgeted
    key-guessing strategies. *)

(** {2 Receiver chassis and laws}

    Every cumulative layered receiver of this library runs on one
    chassis: per-slot bookkeeping on the shared {!Slot_clock}, DELTA key
    reconstruction, SIGMA or IGMP membership, adversaries and collusion,
    the level series and the meter.  What differs between protocols is
    a small {e receiver law}: what counts as a lost group, and the
    level the receiver asks for after each slot.  FLID-DL's law is
    below ({!receiver_start}); {!Oversub} is another. *)

type group_slot_rec = {
  mutable count : int;  (** packets received *)
  mutable last_seq : int;  (** seq of the flagged last packet; -1 until seen *)
  mutable marked : int;
      (** ECN-marked arrivals: trusted edge routers scrub their DELTA
          components *)
}
(** One group's evidence for one slot. *)

type slot_rec = {
  per_group : group_slot_rec array;  (** index g-1 *)
  delta_recv : Mcc_delta.Layered.receiver option;  (** [Robust] mode *)
  mutable mask : int;  (** the slot's upgrade authorization mask *)
}

type verdict = {
  signal : bool;  (** the slot showed congestion (counted as an event) *)
  desired : int;  (** the level the law asks for, >= 1 *)
  may_upgrade : bool;
      (** [Robust]: an authorized increase key may be claimed *)
  ceiling : int;
      (** [Robust]: a key-congested slot lands at most at this level *)
}
(** A law's per-slot decision.  In [Plain] mode the receiver sheds down
    to [desired] at once, or adds one level when [desired] is higher
    and its whole subscription is effective.  In [Robust] mode the slot
    is congested for DELTA when [signal] is set or [desired] is below
    the current level. *)

type 's law = {
  name : string;
      (** prefix of the law's metrics ([name.slots],
          [name.level_changes]), trace component ([name.receiver]) and
          series ([name.s<id>.h<host>.*]) *)
  marks_lost : bool;  (** whether an ECN-marked group counts as lost *)
  judge :
    's -> slot_rec -> level:int -> effective:int -> any_lost:bool -> verdict;
      (** called once per slot with an effective subscription (>= 1):
          [level] is the current level, [effective] the part of it
          subscribed long enough to be judged, [any_lost] whether a
          group of it was lost *)
  shed : 's -> level:int -> unit;
      (** [Robust]: the key chain forced the level down to [level] *)
  settle : 's -> int -> unit;  (** end of slot: the level's net change *)
  attrs : 's -> (string * Mcc_obs.Json.t) list;
      (** extra attributes of the [level] trace event *)
  gauges : (string * ('s -> float)) list;
      (** extra sampled series, after goodput and level *)
}
(** A receiver law with state ['s]. *)

type 's chassis
(** A layered receiver running a law with state ['s]. *)

val chassis_start :
  ?at:float ->
  ?behavior:behavior ->
  law:'s law ->
  state:'s ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  's chassis
(** Joins the minimal group at [at] (SIGMA session-join in [Robust]
    mode, IGMP otherwise) and evaluates every slot with [law].  The
    receiver draws from [prng] only while adversarial. *)

val law_state : 's chassis -> 's

type receiver = unit chassis
(** A FLID-DL receiver. *)

val receiver_start :
  ?at:float ->
  ?behavior:behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver

val receiver_meter : _ chassis -> Mcc_util.Meter.t
(** Bytes of session data reaching the receiver's host. *)

val receiver_level : _ chassis -> int
(** Current subscription level (what the receiver believes). *)

val level_series : _ chassis -> Mcc_util.Series.t
(** (time, level) samples recorded at every level change. *)

val congestion_events : _ chassis -> int
(** Slots whose verdict signalled congestion. *)

val receiver_stop : _ chassis -> unit
(** Freezes the receiver (no further evaluation or subscriptions);
    group membership decays via key expiry.  For an orderly departure
    use {!receiver_leave}. *)

val receiver_leave : _ chassis -> unit
(** The paper's explicit unsubscription (Section 3.2.2, Figure 6c): the
    receiver leaves all its groups at once — an unsubscription message
    under SIGMA, IGMP leaves otherwise — and stops. *)

val receiver_history : _ chassis -> submission list
(** The receiver's recent honest (slot, key) submissions, newest first,
    bounded — what an accomplice leaks to colluders (Section 4.2) and a
    stale-replay adversary mines. *)

val set_colluder : 's chassis -> source:'s chassis -> unit
(** Turns the receiver into a colluder (paper Section 4.2): every slot
    it replays the (slot, key) submissions its accomplice [source] —
    typically a receiver behind a cleaner path — last made, instead of
    reconstructing keys from its own reception.  Defeated by the SIGMA
    agent's [interface_keys] option, which makes keys interface-specific. *)
