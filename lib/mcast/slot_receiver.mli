(** The receiver of every protocol in this library, the receive-side
    twin of {!Slot_sender}.

    One chassis does what every receiver does: it keeps the per-slot
    records on {!Slot_clock} (per-packet meter, lane closure, packet
    counts, flagged last sequence numbers, ECN marks, the upgrade mask,
    DELTA evidence), applies a level over plain IGMP or robustly
    through the SIGMA client (shed, re-admit at level 0, leave on
    departure), runs adversaries and collusion, and records the level
    metrics, trace events and series.  Three things differ between
    protocols, and each is data:

    - a receiver {!law}: per-slot observation to desired level;
    - a key {!scheme}: which payload is the session's, the DELTA
      evidence a packet adds, the keys reconstructed at slot end and
      the level they reach;
    - the scheme's {!holding}: the groups a level holds. *)

(** {1 Adversaries} *)

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
      (** a random key of the scheme's width, drawn from the receiver's
          own PRNG *)
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
          plus random guesses for all other groups.  Sugar: normalised
          to [Adversarial (inflation_adversary ~at)] at {!start}. *)
  | Adversarial of adversary

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

(** {1 Laws} *)

type lane_rec = {
  mutable count : int;  (** packets received *)
  mutable last_seq : int;  (** seq of the flagged last packet; -1 until seen *)
  mutable marked : int;
      (** ECN-marked arrivals: trusted edge routers scrub their DELTA
          components *)
}
(** One lane's evidence for one slot. *)

type slot_rec = {
  lanes : lane_rec array;
      (** index g-1 for a {!Cumulative} holding; one lane, the held
          group's, for a {!Single} one *)
  mutable mask : int;  (** the slot's upgrade authorization mask *)
}

type verdict = {
  signal : bool;  (** the slot showed congestion (counted as an event) *)
  desired : int;
      (** the level the law asks for; 0 (below the minimal group) acts
          as 1 in [Plain] mode *)
  may_upgrade : bool;
      (** [Robust], layered keys: an authorized increase key may be
          claimed *)
  ceiling : int;
      (** [Robust], layered keys: a key-congested slot lands at most at
          this level *)
}
(** A law's per-slot decision.  In [Plain] mode the receiver sheds down
    to [desired] at once, or adds one level when [desired] is higher
    and its whole subscription is effective.  In [Robust] mode the key
    scheme turns it into keys and a level. *)

type 's law = {
  name : string;
      (** prefix of the law's metrics ([name.slots], [name.level_changes]
          or [name.switches]), trace component ([name.receiver]) and
          series ([name.s<id>.h<host>.*]) *)
  marks_lost : bool;  (** whether an ECN-marked lane counts as lost *)
  judge :
    's -> slot_rec -> level:int -> effective:int -> any_lost:bool -> verdict;
      (** called once per slot with an effective subscription (>= 1):
          [level] is the current level, [effective] the part of it
          subscribed long enough to be judged, [any_lost] whether a
          lane of it was lost *)
  shed : 's -> level:int -> unit;
      (** [Robust]: the key chain forced the level down to [level] *)
  settle : 's -> int -> unit;  (** end of slot: the level's net change *)
  stop : 's -> unit;  (** the receiver stopped: release the law's timers *)
  attrs : 's -> (string * Mcc_obs.Json.t) list;
      (** extra attributes of the level trace event *)
  gauges : (string * ('s -> float)) list;
      (** extra sampled series, after goodput and level *)
}
(** A receiver law with state ['s]. *)

val count_moves : string -> 's -> int -> unit
(** [count_moves name] is a [settle] ticking [name.joins] or
    [name.leaves] by the level's net change. *)

(** {1 Key schemes} *)

type holding =
  | Cumulative
      (** level l holds groups 1..l, one lane each (layered sessions);
          the level changes are counted as [level_changes] and traced
          as [level] events *)
  | Single
      (** level l holds group l alone, one lane (replicated sessions):
          a level change is a switch — joins the new group before
          leaving the old one, is counted as [switches] and traced as a
          [switch] event with a [group] attribute, and a re-admission
          is one even back to group 1.  An inflater that sheds keeps
          the other groups joined. *)

(** A data packet's slot coordinates, filled by a scheme's [read]. *)
type coords = {
  mutable group : int;  (** 1-based *)
  mutable slot : int;
  mutable seq : int;
  mutable last : bool;
  mutable mask : int;
}

type outcome = {
  level : int;
      (** the level the keys reach; 0: even the minimal group's key
          chain broke, re-admit through SIGMA's session-join *)
  keys : (int * Mcc_delta.Key.t) list;
      (** (group, key) pairs presented for slot+2, in the scheme's
          order *)
}

type 'd scheme = {
  width : int;  (** key width in bits, as the SIGMA client presents keys *)
  holding : holding;
  read : Mcc_net.Payload.t -> coords -> bool;
      (** whether a payload is one of the session's data packets; if so
          it fills the coordinates (hot path: must not allocate) *)
  evidence : unit -> 'd;  (** a slot's empty DELTA evidence ([Robust]) *)
  add : 'd -> coords -> Mcc_net.Packet.t -> unit;
      (** the evidence a packet of a not yet evaluated slot adds *)
  slot_end :
    'd ->
    slot_rec ->
    level:int ->
    effective:int ->
    lost:(int -> bool) ->
    verdict ->
    outcome;
      (** at slot end, the keys reconstructed from the evidence and
          the level they reach, given the current [level], its
          [effective] part, which of its groups were [lost] and the
          law's verdict *)
  leave_on_rejoin : bool;
      (** on a broken key chain, unsubscribe the held groups before the
          session-join rather than let their grants lapse *)
  knock : bool;
      (** session-join again whenever the minimal group's lane stayed
          silent at level 1: its grant lapsed, e.g. during an outage *)
}
(** A DELTA instantiation, receive side, with per-slot evidence ['d]. *)

val layered :
  width:int ->
  groups:int ->
  read:(Mcc_net.Payload.t -> coords -> bool) ->
  Mcc_delta.Layered.receiver scheme
(** The layered XOR scheme (paper Figure 4) on a cumulative holding,
    fields in the header words: {!Mcc_delta.Layered.slot_end} with the
    slot congested when the verdict signals or asks for less, a
    congested slot capped at the verdict's ceiling, a clean one held
    while the top group is not yet effective.  Leaves on re-admission
    and knocks. *)

val replicated :
  width:int ->
  groups:int ->
  read:(Mcc_net.Payload.t -> coords -> bool) ->
  Mcc_delta.Replicated.receiver scheme
(** The replicated XOR scheme (paper Figure 5) on a single-group
    holding: {!Mcc_delta.Replicated.slot_end} of the held group,
    congested when the verdict signals.  Knocks; lets the old group's
    grant lapse on re-admission. *)

(** {1 Receivers} *)

type ('s, 'd) t
(** A receiver running a law with state ['s] and a key scheme with
    evidence ['d]. *)

val start :
  ?at:float ->
  ?behavior:behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  mode:Slot_sender.mode ->
  processing_margin:float ->
  Slot_sender.session ->
  'd scheme ->
  's law ->
  's ->
  ('s, 'd) t
(** Delivers the session's groups to the receiver, joins the minimal
    group at [at] (default 0; a SIGMA session-join in [Robust] mode, an
    IGMP join otherwise) and evaluates every slot with the law and the
    scheme.  [processing_margin] is {!Slot_clock}'s wall-clock fallback.
    The receiver draws from [prng] only while adversarial. *)

val state : ('s, _) t -> 's
(** The law's state. *)

val meter : _ t -> Mcc_util.Meter.t
(** Bytes of session data reaching the receiver's host. *)

val level : _ t -> int
(** Current subscription level (what the receiver believes). *)

val series : _ t -> Mcc_util.Series.t
(** (time, level) samples recorded at every level change. *)

val congestion_events : _ t -> int
(** Slots whose verdict signalled congestion. *)

val stop : _ t -> unit
(** Freezes the receiver (no further evaluation or subscriptions) and
    stops the law; group membership decays via key expiry.  For an
    orderly departure use {!leave}. *)

val leave : _ t -> unit
(** The paper's explicit unsubscription (Section 3.2.2, Figure 6c): the
    receiver leaves the groups its level holds (every group, for a
    plain receiver that inflated) at once — an unsubscription message
    under SIGMA, IGMP leaves otherwise — and stops. *)

val history : _ t -> submission list
(** The receiver's recent honest (slot, key) submissions, newest first,
    bounded — what an accomplice leaks to colluders (Section 4.2) and a
    stale-replay adversary mines. *)

val set_colluder : ('s, 'd) t -> source:('s, 'd) t -> unit
(** Turns the receiver into a colluder (paper Section 4.2): every slot
    it replays the (slot, key) submissions its accomplice [source] —
    typically a receiver behind a cleaner path — last made, instead of
    reconstructing keys from its own reception.  Defeated by the SIGMA
    agent's [interface_keys] option, which makes keys interface-specific. *)
