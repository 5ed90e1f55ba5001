(* Cross-cutting end-to-end scenarios beyond the paper's figures:
   receiver churn, shared-LAN interfaces, multiple attackers, and a
   two-bottleneck chain where heterogeneous receivers settle at
   different levels of one session. *)

module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Multicast = Mcc_net.Multicast
module Scenario = Mcc_core.Scenario
module Dumbbell = Mcc_core.Dumbbell
module Defaults = Mcc_core.Defaults
module Flid = Mcc_mcast.Flid
module Slot_receiver = Mcc_mcast.Slot_receiver
module Layering = Mcc_mcast.Layering
module Router_agent = Mcc_sigma.Router_agent
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng
module Link = Mcc_net.Link

let test_receiver_leave_prunes () =
  let t = Scenario.create ~seed:81 ~bottleneck_rate_bps:Defaults.fair_share_bps () in
  let s =
    Scenario.add_multicast t ~mode:Flid.Robust ~receivers:[ Scenario.receiver () ] ()
  in
  Scenario.run t ~seconds:30.;
  let r = List.hd s.Scenario.receivers in
  let before = Meter.total_bytes (Flid.receiver_meter r) in
  Alcotest.(check bool) "was receiving" true (before > 0);
  Flid.receiver_leave r;
  Scenario.run t ~seconds:32.;
  let at_leave = Meter.total_bytes (Flid.receiver_meter r) in
  Scenario.run t ~seconds:45.;
  let later = Meter.total_bytes (Flid.receiver_meter r) in
  (* Explicit unsubscription stops forwarding within well under a
     second; anything still metered is the final in-flight trickle. *)
  Alcotest.(check bool)
    (Printf.sprintf "traffic stops (%d -> %d bytes over 13 s)" at_leave later)
    true
    (later - at_leave < 5_000)

let test_leave_and_rejoin () =
  let t = Scenario.create ~seed:82 ~bottleneck_rate_bps:Defaults.fair_share_bps () in
  let s =
    Scenario.add_multicast t ~mode:Flid.Robust ~receivers:[ Scenario.receiver () ] ()
  in
  Scenario.run t ~seconds:20.;
  let first = List.hd s.Scenario.receivers in
  Flid.receiver_leave first;
  Scenario.run t ~seconds:30.;
  (* A new receiver joins the half-abandoned session and must be
     admitted through session-join as usual. *)
  let host = Dumbbell.add_receiver (Scenario.dumbbell t) in
  Topology.compute_routes (Scenario.dumbbell t).Dumbbell.topo;
  let second =
    Flid.receiver_start ~at:31. (Scenario.dumbbell t).Dumbbell.topo ~host
      ~prng:(Prng.create 4242) s.Scenario.config
  in
  Scenario.run t ~seconds:70.;
  let kbps = Meter.mean_kbps (Flid.receiver_meter second) ~lo:45. ~hi:70. in
  Alcotest.(check bool)
    (Printf.sprintf "late rejoin reaches fair share (%.0f)" kbps)
    true (kbps > 120.)

let test_lan_shared_interface_end_to_end () =
  (* Two receivers of one FLID-DS session share a LAN interface: both
     must receive, and SIGMA treats them as one interface (grants are
     per-interface). *)
  let sim = Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:Defaults.fair_share_bps () in
  let agent = Router_agent.attach db.Dumbbell.topo db.Dumbbell.right in
  ignore agent;
  let _lan, hosts = Dumbbell.add_receiver_lan db ~hosts:2 in
  let src = Dumbbell.add_sender db in
  let prng = Prng.create 83 in
  let config =
    Flid.make_config ~id:1 ~base_group:0x9000 ~layering:(Defaults.layering ())
      ~slot_duration:Defaults.flid_ds_slot ~mode:Flid.Robust ()
  in
  let _sender =
    Flid.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.split prng) config
  in
  let receivers =
    List.map
      (fun host ->
        Flid.receiver_start db.Dumbbell.topo ~host ~prng:(Prng.split prng)
          config)
      hosts
  in
  Dumbbell.finalize db;
  Sim.run_until sim 60.;
  List.iter
    (fun r ->
      let kbps = Meter.mean_kbps (Flid.receiver_meter r) ~lo:20. ~hi:60. in
      Alcotest.(check bool)
        (Printf.sprintf "LAN receiver gets data (%.0f)" kbps)
        true (kbps > 120.))
    receivers

let test_two_attackers_robust () =
  (* Both multicast receivers misbehave; SIGMA caps both and TCP keeps
     its share. *)
  let t = Scenario.create ~seed:84 ~bottleneck_rate_bps:1_000_000. () in
  let f1 =
    Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:
        [ Scenario.receiver ~behavior:(Slot_receiver.Inflate_after 20.) () ]
      ()
  in
  let f2 =
    Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:
        [ Scenario.receiver ~behavior:(Slot_receiver.Inflate_after 25.) () ]
      ()
  in
  let tcp1 = Scenario.add_tcp t in
  let tcp2 = Scenario.add_tcp t in
  Scenario.run t ~seconds:90.;
  let after m = Meter.mean_kbps m ~lo:40. ~hi:90. in
  let a1 = after (Flid.receiver_meter (List.hd f1.Scenario.receivers)) in
  let a2 = after (Flid.receiver_meter (List.hd f2.Scenario.receivers)) in
  let t1 = after (Mcc_transport.Tcp.delivered_meter tcp1) in
  let t2 = after (Mcc_transport.Tcp.delivered_meter tcp2) in
  Alcotest.(check bool)
    (Printf.sprintf "both capped (%.0f, %.0f)" a1 a2)
    true
    (a1 < 500. && a2 < 500.);
  Alcotest.(check bool)
    (Printf.sprintf "TCP survives (%.0f, %.0f)" t1 t2)
    true
    (t1 > 100. && t2 > 100.)

let test_two_bottleneck_chain () =
  (* src -- R1 ==1Mbps== R2 ==200kbps== R3 -- far receiver
                          \-- near receiver
     One FLID-DS session; the near receiver should sustain a higher
     level than the far one: per-branch heterogeneity on one tree. *)
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let prng = Prng.create 85 in
  let r1 = Topology.add_node topo Node.Core_router in
  let r2 = Topology.add_node topo Node.Edge_router in
  let r3 = Topology.add_node topo Node.Edge_router in
  let src = Topology.add_node topo Node.Host in
  let near = Topology.add_node topo Node.Host in
  let far = Topology.add_node topo Node.Host in
  let connect ?(rate = 10e6) ?(buffer = 50_000) a b =
    ignore
      (Topology.connect topo a b ~rate_bps:rate ~delay_s:0.01
         ~buffer_bytes:buffer ())
  in
  connect src r1;
  connect ~rate:1_000_000. ~buffer:20_000 r1 r2;
  connect ~rate:200_000. ~buffer:6_000 r2 r3;
  connect near r2;
  connect far r3;
  Topology.compute_routes topo;
  let agent2 = Router_agent.attach topo r2 in
  let agent3 = Router_agent.attach topo r3 in
  ignore agent2;
  ignore agent3;
  let config =
    Flid.make_config ~id:1 ~base_group:0xA000 ~layering:(Defaults.layering ())
      ~slot_duration:Defaults.flid_ds_slot ~mode:Flid.Robust ()
  in
  let _sender =
    Flid.sender_start topo ~node:src ~prng:(Prng.split prng) config
  in
  let near_r =
    Flid.receiver_start topo ~host:near ~prng:(Prng.split prng) config
  in
  let far_r =
    Flid.receiver_start topo ~host:far ~prng:(Prng.split prng) config
  in
  Sim.run_until sim 80.;
  let near_kbps = Meter.mean_kbps (Flid.receiver_meter near_r) ~lo:30. ~hi:80. in
  let far_kbps = Meter.mean_kbps (Flid.receiver_meter far_r) ~lo:30. ~hi:80. in
  Alcotest.(check bool)
    (Printf.sprintf "near outruns far (%.0f vs %.0f)" near_kbps far_kbps)
    true
    (near_kbps > 1.5 *. far_kbps);
  Alcotest.(check bool)
    (Printf.sprintf "far tracks its bottleneck (%.0f)" far_kbps)
    true
    (far_kbps > 90. && far_kbps < 230.);
  Alcotest.(check bool)
    (Printf.sprintf "near tracks its bottleneck (%.0f)" near_kbps)
    true
    (near_kbps > 400.)

let test_determinism_across_full_scenario () =
  let run () =
    let t = Scenario.create ~seed:86 ~bottleneck_rate_bps:1_000_000. () in
    let s =
      Scenario.add_multicast t ~mode:Flid.Robust
        ~receivers:[ Scenario.receiver (); Scenario.receiver ~at:5. () ] ()
    in
    let tcp = Scenario.add_tcp t in
    ignore
      (Scenario.add_onoff_cbr t ~rate_bps:200_000. ~on_period:3. ~off_period:3.);
    Scenario.run t ~seconds:45.;
    ( List.map (fun r -> Meter.total_bytes (Flid.receiver_meter r))
        s.Scenario.receivers,
      Meter.total_bytes (Mcc_transport.Tcp.delivered_meter tcp),
      Sim.events_executed (Scenario.sim t) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let suite =
  ( "integration",
    [
      Alcotest.test_case "receiver leave prunes" `Slow test_receiver_leave_prunes;
      Alcotest.test_case "leave and rejoin" `Slow test_leave_and_rejoin;
      Alcotest.test_case "LAN-shared interface" `Slow
        test_lan_shared_interface_end_to_end;
      Alcotest.test_case "two attackers" `Slow test_two_attackers_robust;
      Alcotest.test_case "two-bottleneck chain" `Slow test_two_bottleneck_chain;
      Alcotest.test_case "full-scenario determinism" `Slow
        test_determinism_across_full_scenario;
    ] )
