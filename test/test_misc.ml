(* Smaller odds and ends: printers, report formatting, and observability
   helpers that the larger suites don't exercise. *)

module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Series = Mcc_util.Series

let to_string pp v = Format.asprintf "%a" pp v

(* Substring helper without external deps. *)
let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec scan i = i + m <= n && (String.sub s i m = affix || scan (i + 1)) in
  m = 0 || scan 0

let test_packet_pp () =
  let pkt =
    Packet.make ~src:1 ~dst:(Packet.Unicast 2) ~size:100 Payload.Raw
  in
  let s = to_string Packet.pp pkt in
  Alcotest.(check bool) "route shown" true (contains s "1->u2");
  Alcotest.(check bool) "size shown" true (contains s "100B");
  let mc =
    Packet.make ~src:3 ~dst:(Packet.Multicast 99) ~size:50 Payload.Raw
  in
  Alcotest.(check bool) "group shown" true (contains (to_string Packet.pp mc) "g99")

let test_payload_pp_extension () =
  let flid =
    Mcc_mcast.Flid.Data
      {
        session = 1;
        group = 2;
        slot = 3;
        seq = 4;
        last = true;
        upgrade_mask = 0;
      }
  in
  let s = to_string Payload.pp flid in
  Alcotest.(check bool) "flid printer registered" true (contains s "flid");
  Alcotest.(check string) "raw payload" "raw" (to_string Payload.pp Payload.Raw)

let test_series_pp_rows () =
  let s = Series.create () in
  Series.add s ~time:1. ~value:2.;
  Series.add s ~time:3. ~value:4.;
  let out = Format.asprintf "%a" (Series.pp_rows ~label:"demo") s in
  Alcotest.(check bool) "label" true (contains out "# demo");
  Alcotest.(check bool) "row" true (contains out "1.000 2.000")

let test_sim_events_counter () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~at:(float_of_int i) (fun () -> ()))
  done;
  let h = Sim.schedule sim ~at:6. (fun () -> ()) in
  Sim.cancel h;
  Sim.run sim;
  Alcotest.(check int) "cancelled events not counted" 5
    (Sim.events_executed sim)

let test_node_link_to () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let c = Topology.add_node topo Node.Host in
  ignore
    (Topology.connect topo a b ~rate_bps:1e6 ~delay_s:0.01 ~buffer_bytes:1000 ());
  Alcotest.(check bool) "a-b" true (Node.link_to a b.Node.id <> None);
  Alcotest.(check bool) "a-c absent" true (Node.link_to a c.Node.id = None);
  Alcotest.(check int) "two simplex links" 2 (List.length (Topology.links topo));
  Alcotest.(check int) "three nodes" 3 (List.length (Topology.nodes topo))

let test_topology_unknown_node () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Topology.node topo 42);
       false
     with Invalid_argument _ -> true)

let test_messages_sizes () =
  let module M = Mcc_sigma.Messages in
  Alcotest.(check int) "join" 32 M.session_join_bytes;
  Alcotest.(check int) "unsub 3 groups" (28 + 12)
    (M.unsubscribe_bytes [ 1; 2; 3 ]);
  Alcotest.(check bool) "special grows with tuples" true
    (M.special_bytes ~width:16
       [ Mcc_sigma.Tuple.make ~group:1 ~slot:1 ~keys:[ 1 ] ~minimal:false ]
    < M.special_bytes ~width:16
        [
          Mcc_sigma.Tuple.make ~group:1 ~slot:1 ~keys:[ 1 ] ~minimal:false;
          Mcc_sigma.Tuple.make ~group:2 ~slot:1 ~keys:[ 1; 2 ] ~minimal:false;
        ])

let suite =
  ( "misc",
    [
      Alcotest.test_case "packet pp" `Quick test_packet_pp;
      Alcotest.test_case "payload pp extensions" `Quick
        test_payload_pp_extension;
      Alcotest.test_case "series pp" `Quick test_series_pp_rows;
      Alcotest.test_case "sim events counter" `Quick test_sim_events_counter;
      Alcotest.test_case "node link_to / topology" `Quick test_node_link_to;
      Alcotest.test_case "topology unknown node" `Quick
        test_topology_unknown_node;
      Alcotest.test_case "message sizes" `Quick test_messages_sizes;
    ] )
