module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Prng = Mcc_util.Prng
module Flid = Mcc_mcast.Flid
module Layering = Mcc_mcast.Layering
module Router_agent = Mcc_sigma.Router_agent
module Tcp = Mcc_transport.Tcp
module On_off = Mcc_transport.On_off
module Ecn = Mcc_delta.Ecn

type receiver_spec = {
  start_at : float;
  behavior : Flid.behavior;
  access_delay_s : float option;
  access_rate_bps : float option;
}

let receiver ?(at = 0.) ?(behavior = Flid.Well_behaved) ?access_delay_s
    ?access_rate_bps () =
  { start_at = at; behavior; access_delay_s; access_rate_bps }

type ('c, 's, 'r) session = { config : 'c; sender : 's; receivers : 'r list }

type t = {
  sim : Sim.t;
  db : Dumbbell.t;
  prng : Prng.t;
  agent_config : Router_agent.config;
  sigma : bool;
  mutable next_session : int;
  mutable next_base_group : int;
  mutable agent : Router_agent.t option;
  mutable tcp_flows : int;
  mutable routed : bool;
}

let create ?(seed = 42) ?sched ?bottleneck_delay_s ?ecn ?packet_buffer
    ?(agent_config = Router_agent.default_config) ?(sigma = true)
    ~bottleneck_rate_bps () =
  let sim = Sim.create ?sched () in
  let db =
    Dumbbell.create ?bottleneck_delay_s ?ecn ?packet_buffer sim
      ~bottleneck_rate_bps ()
  in
  {
    sim;
    db;
    prng = Prng.create seed;
    agent_config;
    sigma;
    next_session = 1;
    next_base_group = 0x1000;
    agent = None;
    tcp_flows = 0;
    routed = false;
  }

let sim t = t.sim
let dumbbell t = t.db
let agent t = t.agent

(* Component transform for FLID data, installed on the SIGMA agent.  It
   rewrites the DELTA header words of the branch copy in place: the
   copy is this interface's own, so the parent and sibling copies keep
   their fields.  Marked copies get a fresh random component (ECN
   scrub); with interface-specific keys enabled every other copy is
   XOR-padded and the pad recorded so the agent can map the
   interface's lower keys back to the sender's upper keys (paper
   Section 4.2).  The decrease field of group [addr]'s packets opens
   group [addr - 1] (consecutive addressing); a stable pad per
   (interface, opened group, guarded slot) keeps every copy the
   receiver sees consistent while making a lifted decrease key fail on
   any other interface.  PRNG draws: the component's first, then the
   decrease pad's (only when that pad is new). *)
let[@hot] transform agent prng (link : Link.t) pkt =
  match pkt.Packet.payload with
  | Flid.Data { slot; _ } when pkt.Packet.delta_component <> Packet.no_field
    -> (
      let width = Mcc_delta.Key.default_width in
      let iface_keys = Router_agent.interface_keys_enabled agent in
      let component = pkt.Packet.delta_component in
      if pkt.Packet.ecn then
        pkt.Packet.delta_component <-
          Ecn.scrubbed_component prng ~width component;
      match pkt.Packet.dst with
      | Packet.Multicast addr when iface_keys ->
          if not pkt.Packet.ecn then begin
            let pad = Mcc_delta.Key.nonce prng ~width in
            Router_agent.note_pad agent ~link_id:link.Link.id ~group:addr
              ~guarded_slot:(slot + 2) ~pad;
            pkt.Packet.delta_component <- Mcc_delta.Key.xor component pad
          end;
          let dec = pkt.Packet.delta_decrease in
          if dec <> Packet.no_field then
            pkt.Packet.delta_decrease <-
              Mcc_delta.Key.xor dec
                (Router_agent.decrease_pad agent ~link_id:link.Link.id
                   ~group:(addr - 1) ~guarded_slot:(slot + 2) prng ~width)
      | Packet.Multicast _ | Packet.Unicast _ -> ())
  | _ -> ()

(* Exported for builders over generated topologies (Mcc_workload): the
   same transform, one per attached agent. *)
let delta_transform = transform

(* With [sigma = false] the right-hand edge router stays a legacy IGMP
   device even for Robust sessions (the paper's incremental-deployment
   counterfactual): keys flow in band but nothing enforces them. *)
let ensure_agent t =
  if not t.sigma then None
  else
    match t.agent with
    | Some agent -> Some agent
    | None ->
        let agent =
          Router_agent.attach ~config:t.agent_config t.db.Dumbbell.topo
            t.db.Dumbbell.right
        in
        let scrub_prng = Prng.split t.prng in
        Router_agent.set_scrubber agent (transform agent scrub_prng);
        t.agent <- Some agent;
        Some agent

let add_session (type c s r)
    (module P : Mcc_mcast.Protocol.S
      with type config = c
       and type sender = s
       and type receiver = r) ?slot ?layering ?(tune = Fun.id) ?receiver_mode t
    ~mode ~receivers () =
  let layering = match layering with Some l -> l | None -> Defaults.layering () in
  let slot = match slot with Some s -> s | None -> P.default_slot mode in
  (match mode with Flid.Robust -> ignore (ensure_agent t) | Flid.Plain -> ());
  let id = t.next_session in
  t.next_session <- id + 1;
  let base_group = t.next_base_group in
  t.next_base_group <- base_group + layering.Layering.groups;
  let configure mode =
    tune (P.configure ~id ~base_group ~layering ~slot_duration:slot ~mode)
  in
  let config = configure mode in
  let sender_host = Dumbbell.add_sender t.db in
  let sender =
    P.sender_start t.db.Dumbbell.topo ~node:sender_host
      ~prng:(Prng.split t.prng) config
  in
  let receiver_config =
    match receiver_mode with Some m -> configure m | None -> config
  in
  let receivers =
    List.map
      (fun spec ->
        let host =
          Dumbbell.add_receiver ?delay_s:spec.access_delay_s
            ?rate_bps:spec.access_rate_bps t.db
        in
        P.receiver_start ~at:spec.start_at ~behavior:spec.behavior
          t.db.Dumbbell.topo ~host ~prng:(Prng.split t.prng) receiver_config)
      receivers
  in
  { config; sender; receivers }

let add_multicast = add_session (module Mcc_mcast.Flid)

let add_tcp ?(at = 0.) t =
  t.tcp_flows <- t.tcp_flows + 1;
  let src = Dumbbell.add_sender t.db in
  let dst = Dumbbell.add_receiver t.db in
  Tcp.start ~at t.db.Dumbbell.topo ~flow:t.tcp_flows ~src ~dst ()

let add_onoff_cbr ?(at = 0.) ?until t ~rate_bps ~on_period ~off_period =
  let src = Dumbbell.add_sender t.db in
  let dst = Dumbbell.add_receiver t.db in
  On_off.start ~at ?until t.db.Dumbbell.topo ~src
    ~dst:(Packet.Unicast dst.Node.id) ~rate_bps ~size:Defaults.packet_size
    ~on_period ~off_period ()

let run t ~seconds =
  if not t.routed then begin
    Dumbbell.finalize t.db;
    t.routed <- true
  end;
  Sim.run_until t.sim seconds

let bottleneck_drops t = t.db.Dumbbell.forward.Link.drops
