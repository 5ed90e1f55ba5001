(** Scenario builder: composes a dumbbell, multicast sessions of any
    {!Mcc_mcast.Protocol.S} protocol, TCP and CBR cross traffic, and the
    SIGMA edge-router agent, then runs the simulation.

    Everything stochastic draws from a single seed, so a scenario is a
    pure function of its parameters. *)

type receiver_spec = {
  start_at : float;
  behavior : Mcc_mcast.Slot_receiver.behavior;
  access_delay_s : float option;  (** overrides the default 10 ms *)
  access_rate_bps : float option;
      (** overrides the default 10 Mbps: a capacity-limited receiver *)
}

val receiver : ?at:float -> ?behavior:Mcc_mcast.Slot_receiver.behavior ->
  ?access_delay_s:float -> ?access_rate_bps:float -> unit -> receiver_spec

type ('c, 's, 'r) session = { config : 'c; sender : 's; receivers : 'r list }

type t

val create :
  ?seed:int ->
  ?sched:Mcc_engine.Scheduler.backend ->
  ?bottleneck_delay_s:float ->
  ?ecn:bool ->
  ?packet_buffer:bool ->
  ?agent_config:Mcc_sigma.Router_agent.config ->
  ?sigma:bool ->
  bottleneck_rate_bps:float ->
  unit ->
  t
(** [sched] selects the event-scheduler backend for the scenario's sim
    (default: the domain's {!Mcc_engine.Scheduler.default}).

    [sigma] (default [true]) controls whether the right edge router runs
    the SIGMA agent.  With [sigma:false] the edge stays a legacy IGMP
    device even for Robust sessions — the paper's incremental-deployment
    counterfactual where DELTA keys flow in band but nothing enforces
    them (Section 3.2.3). *)

val sim : t -> Mcc_engine.Sim.t
val dumbbell : t -> Dumbbell.t
val agent : t -> Mcc_sigma.Router_agent.t option
(** The SIGMA agent on the right edge router; installed as soon as the
    first robust session is added. *)

val delta_transform :
  Mcc_sigma.Router_agent.t ->
  Mcc_util.Prng.t ->
  Mcc_net.Link.t ->
  Mcc_net.Packet.t ->
  unit
(** The component transform installed on SIGMA agents (ECN scrub of
    marked DELTA components, interface-key padding).  Exported so
    builders over generated topologies ([Mcc_workload]) can install the
    same scrubber on every edge agent; one PRNG per agent. *)

val add_session :
  (module Mcc_mcast.Protocol.S
     with type config = 'c
      and type sender = 's
      and type receiver = 'r) ->
  ?slot:float ->
  ?layering:Mcc_mcast.Layering.t ->
  ?tune:('c -> 'c) ->
  ?receiver_mode:Mcc_mcast.Flid.mode ->
  t ->
  mode:Mcc_mcast.Flid.mode ->
  receivers:receiver_spec list ->
  unit ->
  ('c, 's, 'r) session
(** Adds a sender host on the left, one receiver host per spec on the
    right, and starts the protocol; every session shares the one SIGMA
    agent.  The slot duration defaults to the protocol's
    [default_slot mode] (paper Section 5.1 for FLID: 500 ms FLID-DL,
    250 ms FLID-DS).  [tune] edits the protocol's default configuration
    before anything starts (a packet size, an FEC scheme, an RLM
    policy...).  [receiver_mode] overrides the mode receivers run in:
    Plain receivers of a Robust session model hosts behind a legacy
    edge that still drive subscriptions over IGMP. *)

val add_multicast :
  ?slot:float ->
  ?layering:Mcc_mcast.Layering.t ->
  ?tune:(Mcc_mcast.Flid.config -> Mcc_mcast.Flid.config) ->
  ?receiver_mode:Mcc_mcast.Flid.mode ->
  t ->
  mode:Mcc_mcast.Flid.mode ->
  receivers:receiver_spec list ->
  unit ->
  (Mcc_mcast.Flid.config, Mcc_mcast.Flid.sender, Mcc_mcast.Flid.receiver)
  session
(** {!add_session} for FLID-DL / FLID-DS. *)

val add_tcp : ?at:float -> t -> Mcc_transport.Tcp.t
(** One TCP Reno flow left to right; returns the flow (its meter gives
    the receiver throughput). *)

val add_onoff_cbr :
  ?at:float ->
  ?until:float ->
  t ->
  rate_bps:float ->
  on_period:float ->
  off_period:float ->
  Mcc_transport.On_off.t
(** On-off CBR cross traffic left to right. *)

val run : t -> seconds:float -> unit
(** Computes routes and executes the simulation to the horizon.  May be
    called repeatedly with growing horizons. *)

val bottleneck_drops : t -> int
