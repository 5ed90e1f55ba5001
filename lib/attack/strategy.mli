(** Pluggable attack strategies against multicast congestion control.

    A strategy is a paper-grounded recipe for inflating a subscription:
    what to claim, when, and with which (if any) forged proof.  Each
    strategy is described declaratively — name, paper section, expected
    defence outcome — and realised as an {!instance}: a bundle of
    simulated-clock callbacks a harness drives.  Two harnesses exist:

    - the {e member} adapter ({!member}) turns an instance into a
      {!Mcc_mcast.Slot_receiver.adversary}, i.e. a misbehaving receiver
      inside a session whose [on_slot] callback replaces the honest key
      submission; under a [Plain]-mode session the receiver degrades to
      the IGMP join-everything misbehaviour, gated by [active];
    - the {e bare} driver ({!launch_bare}) runs the instance as a
      standalone attacker host with its own SIGMA client (or raw IGMP
      joins when the edge is legacy), which is how the matrix mounts
      attacks against the RLM-like, replicated and Oversub sessions and
      how grace-window churn acts on the control channel.

    Instances carry their own mutable state (guess cursors, hit
    counters), so one instance drives exactly one attacker.  All
    strategies publish "attack.*" metrics and trace under the
    "attack.strategy" component. *)

module Spec := Mcc_core.Spec
module Slot_receiver := Mcc_mcast.Slot_receiver

type instance = {
  label : string;
  active : time:float -> bool;
      (** whether the attacker misbehaves at simulated [time];
          re-evaluated every slot (on–off strategies gate here) *)
  on_slot : Slot_receiver.adv_ctx -> Slot_receiver.submission list;
      (** per-slot key submissions replacing the honest one.  The member
          adapter wires this into the receiver's subscription path; the
          bare driver calls it on its own slot tick with an empty
          entitlement. *)
  on_packet : time:float -> group:int -> bytes:int -> unit;
      (** every session packet reaching the attacker's host (driven by
          the bare driver, which owns the host's group handlers) *)
  on_key_result : slot:int -> group:int -> accepted:bool -> unit;
      (** validation verdicts for submitted keys, observed one slot
          after submission through the SIGMA client's ack state (driven
          by the bare driver, which owns the client) *)
}

type t = {
  name : string;  (** = [Spec.attack_str kind] *)
  kind : Spec.attack_kind;
  paper : string;  (** the paper section that motivates the attack *)
  doc : string;
  expected : string;  (** the defence outcome the paper predicts *)
  instantiate :
    attack_at:float ->
    slot_duration:float ->
    prng:Mcc_util.Prng.t ->
    instance;
      (** a fresh instance (fresh mutable state) for one attacker *)
}

val of_kind : Spec.attack_kind -> t
(** The strategy implementing a spec-level attack kind. *)

val catalogue : unit -> t list
(** All six strategies at their default parameters, in
    {!Mcc_core.Spec.attack_kind} declaration order — the table
    EXPERIMENTS.md documents. *)

val member : instance -> Slot_receiver.adversary
(** Adapt an instance into a misbehaving session member. *)

(** {1 Bare attacker} *)

type target = {
  tgt_groups : int list;
      (** the attacked session's group addresses, minimal group first *)
  tgt_slot_duration : float;
  tgt_sigma : bool;
      (** [true]: the edge enforces keys, so the attacker drives the
          SIGMA control channel (session-join, key submissions);
          [false]: legacy edge, the attacker just IGMP-joins *)
}

type bare

val launch_bare :
  ?at:float ->
  ?feed:(unit -> Slot_receiver.submission list) ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  target:target ->
  kind:Spec.attack_kind ->
  instance ->
  bare
(** Start a standalone attacker on [host] at [at] (default 0): group
    handlers feed [on_packet] and the attacker's meter; a slot tick
    evaluates [active] and sends [on_slot]'s submissions through the
    SIGMA client (acks drive [on_key_result]) or translates claims into
    IGMP joins on a legacy edge.  [Spec.Grace_churn] runs its
    join/leave cycle on the control channel instead of submitting keys:
    session-join, hold through the grace window, unsubscribe, rejoin
    next cycle.

    [feed] overrides the [actx_history] the slot tick presents to
    [on_slot] — by default the attacker's own past submissions; a
    collusion harness passes the accomplice's
    {!Mcc_mcast.Slot_receiver.history} here. *)

val bare_meter : bare -> Mcc_util.Meter.t
(** Bytes of attacked-session traffic reaching the attacker's host. *)
