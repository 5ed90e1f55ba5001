(* End-to-end collusion (paper Section 4.2): receiver B sits behind a
   narrow access link and is entitled to a low level; accomplice A, on a
   clean path, passes B its reconstructed keys every slot.  With plain
   SIGMA the edge router honours the replayed keys and pumps A's whole
   subscription onto B's starved link; with interface-specific keys the
   replay bounces. *)

module Scenario = Mcc_core.Scenario
module Dumbbell = Mcc_core.Dumbbell
module Defaults = Mcc_core.Defaults
module Flid = Mcc_mcast.Flid
module Slot_receiver = Mcc_mcast.Slot_receiver
module Router_agent = Mcc_sigma.Router_agent
module Multicast = Mcc_net.Multicast
module Node = Mcc_net.Node
module Link = Mcc_net.Link

let run ~interface_keys =
  let agent_config =
    { Router_agent.default_config with Router_agent.interface_keys }
  in
  let t =
    Scenario.create ~seed:97 ~agent_config ~bottleneck_rate_bps:2_000_000. ()
  in
  let session =
    Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:
        [
          Scenario.receiver ();
          (* the clean-path accomplice *)
          Scenario.receiver ~access_rate_bps:150_000. ();
          (* the colluder *)
        ]
      ()
  in
  let a, b =
    match session.Scenario.receivers with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Slot_receiver.set_colluder b ~source:a;
  Scenario.run t ~seconds:60.;
  let agent = Option.get (Scenario.agent t) in
  (* B's host is the second receiver host added to the dumbbell; recover
     it through the session's receiver order via the topology. *)
  let b_host =
    (* hosts are identifiable by their narrow access link *)
    List.find
      (fun (n : Node.t) ->
        n.Node.kind = Node.Host
        && List.exists
             (fun (l : Link.t) -> l.Link.rate_bps = 150_000.)
             n.Node.links)
      (Mcc_net.Topology.nodes (Scenario.dumbbell t).Dumbbell.topo)
  in
  let active_toward_b =
    List.length
      (List.filter
         (fun g ->
           Router_agent.iface_active agent
             ~group:(Flid.group_addr session.Scenario.config g)
             ~toward:b_host.Node.id)
         (List.init Defaults.groups (fun i -> i + 1)))
  in
  let b_access_drops =
    match Multicast.router_of (Scenario.dumbbell t).Dumbbell.topo b_host with
    | _, Some link -> link.Link.drops
    | _, None -> -1
  in
  (Flid.receiver_level a, active_toward_b, b_access_drops)

let test_collusion_succeeds_without_interface_keys () =
  let a_level, active_b, drops = run ~interface_keys:false in
  Alcotest.(check bool)
    (Printf.sprintf "accomplice holds a high level (%d)" a_level)
    true (a_level >= 5);
  Alcotest.(check bool)
    (Printf.sprintf "replayed keys open %d groups for B" active_b)
    true
    (active_b >= a_level - 1);
  Alcotest.(check bool)
    (Printf.sprintf "B's access link bleeds (%d drops)" drops)
    true (drops > 1000)

let test_collusion_blocked_with_interface_keys () =
  let _, active_b, drops = run ~interface_keys:true in
  (* B still gets what its own congestion state entitles it to (a couple
     of groups through its 150 kbps link) but nothing replayed. *)
  Alcotest.(check bool)
    (Printf.sprintf "B capped at its entitlement (%d groups)" active_b)
    true
    (active_b <= 3);
  (* B's own probing saturates its 150 kbps link a little; the flood of
     the unprotected case is an order of magnitude larger. *)
  Alcotest.(check bool)
    (Printf.sprintf "no flood on B's access (%d drops)" drops)
    true
    (drops < 5000)

let suite =
  ( "collusion",
    [
      Alcotest.test_case "succeeds without interface keys" `Slow
        test_collusion_succeeds_without_interface_keys;
      Alcotest.test_case "blocked by interface keys" `Slow
        test_collusion_blocked_with_interface_keys;
    ] )
