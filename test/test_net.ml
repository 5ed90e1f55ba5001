module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Multicast = Mcc_net.Multicast

(* Two hosts joined by two routers: h1 - r1 - r2 - h2. *)
let line_topology () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let h1 = Topology.add_node topo Node.Host in
  let r1 = Topology.add_node topo Node.Edge_router in
  let r2 = Topology.add_node topo Node.Edge_router in
  let h2 = Topology.add_node topo Node.Host in
  let connect a b =
    Topology.connect topo a b ~rate_bps:1_000_000. ~delay_s:0.01
      ~buffer_bytes:10_000 ()
  in
  ignore (connect h1 r1);
  let mid, _ = connect r1 r2 in
  ignore (connect r2 h2);
  Topology.compute_routes topo;
  (sim, topo, h1, r1, r2, h2, mid)

let test_unicast_delivery () =
  let sim, _topo, h1, _, _, h2, _ = line_topology () in
  let got = ref 0 in
  Node.set_unicast_handler h2 (fun _ -> incr got);
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Unicast h2.Node.id) ~size:1000
       Payload.Raw);
  Sim.run sim;
  Alcotest.(check int) "delivered" 1 !got;
  (* 1000 B over three 1 Mbps hops = 3 * 8 ms tx + 3 * 10 ms prop. *)
  Alcotest.(check bool) "latency sane" true
    (Sim.now sim >= 0.054 -. 1e-9 && Sim.now sim < 0.06)

let test_link_serialization () =
  let sim, _topo, h1, _, _, h2, _ = line_topology () in
  let times = ref [] in
  Node.set_unicast_handler h2 (fun _ -> times := Sim.now sim :: !times);
  for _ = 1 to 3 do
    Node.originate h1
      (Packet.make ~src:h1.Node.id ~dst:(Packet.Unicast h2.Node.id) ~size:1000
         Payload.Raw)
  done;
  Sim.run sim;
  match List.rev !times with
  | [ t1; t2; t3 ] ->
      (* Pipelined: one serialization (8 ms) apart at the sink. *)
      Alcotest.(check (float 1e-6)) "spacing 1" 0.008 (t2 -. t1);
      Alcotest.(check (float 1e-6)) "spacing 2" 0.008 (t3 -. t2)
  | _ -> Alcotest.fail "expected 3 deliveries"

let test_drop_tail_and_conservation () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let ab, _ =
    Topology.connect topo a b ~rate_bps:80_000. ~delay_s:0.001
      ~buffer_bytes:2_000 ()
  in
  Topology.compute_routes topo;
  let received = ref 0 in
  Node.set_unicast_handler b (fun _ -> incr received);
  (* Burst of 10 x 1000 B into an 80 kbps link with a 2000 B buffer:
     1 in service + 2 queued fit; the rest drop. *)
  let sent = 10 in
  for _ = 1 to sent do
    Node.originate a
      (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:1000
         Payload.Raw)
  done;
  Sim.run sim;
  Alcotest.(check int) "delivered" 3 !received;
  Alcotest.(check int) "dropped" 7 ab.Link.drops;
  Alcotest.(check int) "conservation" sent (!received + ab.Link.drops)

let test_ecn_marking () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let ab, _ =
    Topology.connect topo a b ~rate_bps:80_000. ~delay_s:0.001
      ~buffer_bytes:4_000 ~ecn_threshold_bytes:1_500 ()
  in
  Topology.compute_routes topo;
  let marked = ref 0 and clean = ref 0 in
  Node.set_unicast_handler b (fun pkt ->
      if pkt.Packet.ecn then incr marked else incr clean);
  for _ = 1 to 5 do
    Node.originate a
      (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:1000
         Payload.Raw)
  done;
  Sim.run sim;
  Alcotest.(check int) "all delivered" 5 (!marked + !clean);
  Alcotest.(check bool) "some marked" true (!marked > 0);
  Alcotest.(check int) "counter matches" !marked ab.Link.marks

let test_routing_shortest_path () =
  (* Square with a shortcut: a-b-d is 2 x 10 ms, a-c-d is 1 + 1 ms. *)
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Core_router in
  let b = Topology.add_node topo Node.Core_router in
  let c = Topology.add_node topo Node.Core_router in
  let d = Topology.add_node topo Node.Core_router in
  let connect x y delay =
    ignore
      (Topology.connect topo x y ~rate_bps:1e6 ~delay_s:delay
         ~buffer_bytes:10_000 ())
  in
  connect a b 0.01;
  connect b d 0.01;
  connect a c 0.001;
  connect c d 0.001;
  Topology.compute_routes topo;
  match Hashtbl.find_opt a.Node.fib d.Node.id with
  | Some link -> Alcotest.(check int) "via c" c.Node.id link.Link.dst
  | None -> Alcotest.fail "no route"

(* Equal-cost paths everywhere (a ring of rings with few distinct
   delays): the next hops must be those of a plain Dijkstra that
   extracts the lowest-id node among the closest, the order the route
   computation has always used — every FIB decides which of several
   equal paths packets take. *)
let test_routes_tie_break () =
  let topo = Topology.create (Sim.create ()) in
  let n = 48 in
  let nodes = Array.init n (fun _ -> Topology.add_node topo Node.Core_router) in
  let connect i j delay =
    ignore
      (Topology.connect topo nodes.(i) nodes.(j) ~rate_bps:1e6 ~delay_s:delay
         ~buffer_bytes:10_000 ())
  in
  for i = 0 to n - 1 do
    connect i ((i + 1) mod n) 0.001;
    if i mod 3 = 0 then connect i ((i + 7) mod n) 0.002;
    if i mod 5 = 0 then connect i ((i * 11 + 3) mod n) 0.003
  done;
  Topology.compute_routes topo;
  Array.iter
    (fun (src : Node.t) ->
      let dist = Array.make n infinity in
      let first = Array.make n (-1) in
      let visited = Array.make n false in
      dist.(src.Node.id) <- 0.;
      let rec loop () =
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if (not visited.(i)) && dist.(i) < infinity
             && (!best < 0 || dist.(i) < dist.(!best))
          then best := i
        done;
        if !best >= 0 then begin
          let u = !best in
          visited.(u) <- true;
          List.iter
            (fun (l : Link.t) ->
              let d = dist.(u) +. l.Link.delay_s +. 1e-9 in
              if d < dist.(l.Link.dst) then begin
                dist.(l.Link.dst) <- d;
                first.(l.Link.dst) <-
                  (if u = src.Node.id then l.Link.id else first.(u))
              end)
            nodes.(u).Node.links;
          loop ()
        end
      in
      loop ();
      for v = 0 to n - 1 do
        if v <> src.Node.id then
          Alcotest.(check int)
            (Printf.sprintf "next hop %d -> %d" src.Node.id v)
            first.(v)
            (match Hashtbl.find_opt src.Node.fib v with
            | Some l -> l.Link.id
            | None -> -1)
      done)
    nodes

let test_multicast_tree_and_prune () =
  let sim, topo, h1, _r1, r2, h2, mid = line_topology () in
  let group = 500 in
  Topology.register_group topo ~group ~source:h1;
  let got = ref 0 in
  Node.subscribe_local h2 ~group (fun _ -> incr got);
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.0;
  (* Graft has propagated; send a multicast packet from the source. *)
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:500
       Payload.Raw);
  Sim.run_until sim 2.0;
  Alcotest.(check int) "delivered over tree" 1 !got;
  Alcotest.(check bool) "bottleneck on tree" true (mid.Link.tx_packets >= 1);
  (* Leave: prune propagates, further packets go nowhere. *)
  Multicast.host_leave topo ~host:h2 ~group;
  Sim.run_until sim 3.0;
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:500
       Payload.Raw);
  Sim.run_until sim 4.0;
  Alcotest.(check int) "no delivery after leave" 1 !got;
  Alcotest.(check bool) "pruned from source"
    true
    (Node.downstream r2 ~group = [] && Node.downstream h1 ~group = [])

let test_multicast_branching_copies () =
  (* One source, two receivers behind the same edge router: the
     bottleneck carries each packet once, the edge duplicates. *)
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let src = Topology.add_node topo Node.Host in
  let r1 = Topology.add_node topo Node.Edge_router in
  let r2 = Topology.add_node topo Node.Edge_router in
  let d1 = Topology.add_node topo Node.Host in
  let d2 = Topology.add_node topo Node.Host in
  let connect a b =
    Topology.connect topo a b ~rate_bps:1e6 ~delay_s:0.005
      ~buffer_bytes:10_000 ()
  in
  ignore (connect src r1);
  let mid, _ = connect r1 r2 in
  ignore (connect r2 d1);
  ignore (connect r2 d2);
  Topology.compute_routes topo;
  let group = 600 in
  Topology.register_group topo ~group ~source:src;
  let got1 = ref 0 and got2 = ref 0 in
  Node.subscribe_local d1 ~group (fun _ -> incr got1);
  Node.subscribe_local d2 ~group (fun _ -> incr got2);
  Multicast.host_join topo ~host:d1 ~group;
  Multicast.host_join topo ~host:d2 ~group;
  Sim.run_until sim 0.5;
  for _ = 1 to 4 do
    Node.originate src
      (Packet.make ~src:src.Node.id ~dst:(Packet.Multicast group) ~size:500
         Payload.Raw)
  done;
  Sim.run_until sim 1.0;
  Alcotest.(check int) "receiver 1" 4 !got1;
  Alcotest.(check int) "receiver 2" 4 !got2;
  Alcotest.(check int) "bottleneck carried each packet once" 4
    mid.Link.tx_packets

let test_protected_group_ignores_igmp () =
  let sim, topo, h1, _, r2, h2, _ = line_topology () in
  let group = 700 in
  Topology.register_group topo ~group ~source:h1;
  Hashtbl.replace r2.Node.protected_groups group ();
  let got = ref 0 in
  Node.subscribe_local h2 ~group (fun _ -> incr got);
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.0;
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:500
       Payload.Raw);
  Sim.run_until sim 2.0;
  Alcotest.(check int) "join ignored on protected group" 0 !got

let test_router_alert_not_to_hosts () =
  let sim, topo, h1, _, r2, h2, _ = line_topology () in
  let group = 800 in
  Topology.register_group topo ~group ~source:h1;
  let host_got = ref 0 and intercepted = ref 0 in
  Node.subscribe_local h2 ~group (fun _ -> incr host_got);
  r2.Node.intercept <- Some (fun _ -> incr intercepted);
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.0;
  Node.originate h1
    (Packet.make ~router_alert:true ~src:h1.Node.id
       ~dst:(Packet.Multicast group) ~size:100 Payload.Raw);
  Sim.run_until sim 2.0;
  Alcotest.(check int) "host never sees special" 0 !host_got;
  Alcotest.(check int) "edge router intercepts" 1 !intercepted

let test_graft_local_holds_tree () =
  (* A router's own (local) interest keeps it on the tree even with no
     downstream interfaces: SIGMA's control-channel requirement. *)
  let sim, topo, h1, _r1, r2, h2, mid = line_topology () in
  let group = 850 in
  Topology.register_group topo ~group ~source:h1;
  Multicast.graft_local topo ~node:r2 ~group;
  Sim.run_until sim 0.5;
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 1.0;
  Alcotest.(check bool) "tree reaches router" true (mid.Link.tx_packets >= 1);
  (* A downstream join and leave must not sever the local interest. *)
  Node.subscribe_local h2 ~group (fun _ -> ());
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.5;
  Multicast.host_leave topo ~host:h2 ~group;
  Sim.run_until sim 2.5;
  let before = mid.Link.tx_packets in
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 3.0;
  Alcotest.(check bool) "still on tree after downstream leave" true
    (mid.Link.tx_packets > before);
  (* Dropping the local interest prunes for good. *)
  Multicast.prune_local topo ~node:r2 ~group;
  Sim.run_until sim 4.0;
  let before = mid.Link.tx_packets in
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 5.0;
  Alcotest.(check int) "pruned after local release" before mid.Link.tx_packets

let test_packet_count_buffer () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let ab, _ =
    Topology.connect topo a b ~rate_bps:80_000. ~delay_s:0.001
      ~buffer_bytes:1_000_000 ~buffer_packets:2 ()
  in
  Topology.compute_routes topo;
  let received = ref 0 in
  Node.set_unicast_handler b (fun _ -> incr received);
  for _ = 1 to 10 do
    Node.originate a
      (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:100
         Mcc_net.Payload.Raw)
  done;
  Sim.run sim;
  (* 1 in service + 2 queued; byte budget would have fit all ten. *)
  Alcotest.(check int) "packet cap enforced" 3 !received;
  Alcotest.(check int) "drops counted" 7 ab.Link.drops

let test_lan_repeats () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let r = Topology.add_node topo Node.Edge_router in
  let lan = Topology.add_node topo Node.Lan in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  ignore
    (Topology.connect topo r lan ~rate_bps:1e7 ~delay_s:0.001
       ~buffer_bytes:10_000 ());
  ignore
    (Topology.connect topo lan a ~rate_bps:1e7 ~delay_s:0.0001
       ~buffer_bytes:10_000 ());
  ignore
    (Topology.connect topo lan b ~rate_bps:1e7 ~delay_s:0.0001
       ~buffer_bytes:10_000 ());
  Topology.compute_routes topo;
  let a_prom = ref 0 and b_local = ref 0 in
  a.Node.promiscuous <- Some (fun _ -> incr a_prom);
  Node.set_unicast_handler b (fun _ -> incr b_local);
  Node.originate r
    (Packet.make ~src:r.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:100
       Payload.Raw);
  Sim.run sim;
  Alcotest.(check int) "b receives" 1 !b_local;
  Alcotest.(check int) "a snoops via promiscuous tap" 1 !a_prom

(* A saturated link on its own sim: [n] packets of varying size offered
   in bursts, every delivery logged as (time, uid).  Returns the log,
   oldest first, and the number of packets the link accepted. *)
let saturated_link sched ~n =
  let sim = Sim.create ~sched () in
  let link =
    Link.create ~sim ~id:0 ~src:0 ~dst:1 ~dst_kind:Link.To_router
      ~rate_bps:1e6 ~delay_s:0.013 ~buffer_bytes:20_000 ()
  in
  (* Uids are per domain, so each log numbers packets from its first. *)
  let first_uid = ref (-1) in
  let log = ref [] in
  link.Link.deliver <-
    (fun pkt ->
      if !first_uid < 0 then first_uid := pkt.Packet.uid;
      log := (Sim.now sim, pkt.Packet.uid - !first_uid) :: !log);
  let accepted = ref 0 in
  for burst = 0 to (n / 50) - 1 do
    Sim.post sim
      ~at:(0.1 *. float_of_int burst)
      (fun () ->
        for i = 0 to 49 do
          let size = 40 + (((burst * 50) + i) * 37 mod 1460) in
          let pkt =
            Packet.make ~src:0 ~dst:(Packet.Unicast 1) ~size Payload.Raw
          in
          if Link.send link pkt then incr accepted
        done)
  done;
  Sim.run sim;
  (List.rev !log, !accepted)

(* The link's serialiser and propagation pipe deliver in FIFO order at
   the instants a closure per packet would have: identical logs under
   both scheduler backends, one delivery per accepted packet, strictly
   in acceptance (uid) order, each at least a propagation delay after
   the previous one's serialisation could have ended. *)
let test_saturated_link_backends () =
  let heap, acc_h = saturated_link Mcc_engine.Scheduler.heap ~n:2000 in
  let wheel, acc_w = saturated_link Mcc_engine.Scheduler.wheel ~n:2000 in
  Alcotest.(check int) "same acceptance" acc_h acc_w;
  Alcotest.(check bool) "link saturated (some drops)" true (acc_h < 2000);
  Alcotest.(check int) "one delivery per accepted packet" acc_h
    (List.length heap);
  Alcotest.(check (list (pair (float 0.) int)))
    "heap and wheel deliver identically" heap wheel;
  let uids = List.map snd heap in
  Alcotest.(check (list int)) "FIFO order" (List.sort compare uids) uids;
  let times = List.map fst heap in
  Alcotest.(check bool) "non-decreasing arrival times" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times))

(* Steady state through [Link.send] on a saturated link: the link itself
   allocates only the two boxed event times it hands [Sim.post] (4 words
   per packet), and the engine boxes its clock once per event (4 more);
   nothing per packet beyond that, bar the amortised growth of the
   scheduler and the event pool. *)
let test_link_steady_state_words () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~id:0 ~src:0 ~dst:1 ~dst_kind:Link.To_router
      ~rate_bps:1e6 ~delay_s:0.01 ~buffer_bytes:10_000_000 ()
  in
  let delivered = ref 0 in
  link.Link.deliver <- (fun _ -> incr delivered);
  let n = 4000 in
  let pkts =
    Array.init n (fun _ ->
        Packet.make ~src:0 ~dst:(Packet.Unicast 1) ~size:500 Payload.Raw)
  in
  let send_all lo hi =
    for i = lo to hi - 1 do
      ignore (Link.send link pkts.(i))
    done;
    Sim.run sim
  in
  (* Warm up: grows the FIFOs, the event pool and the scheduler. *)
  send_all 0 1000;
  let w0 = Gc.minor_words () in
  send_all 1000 n;
  let words = (Gc.minor_words () -. w0) /. float_of_int (n - 1000) in
  Alcotest.(check int) "all delivered" n !delivered;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per packet <= 8.5" words)
    true (words <= 8.5)

let suite =
  ( "net",
    [
      Alcotest.test_case "unicast delivery" `Quick test_unicast_delivery;
      Alcotest.test_case "link serialization" `Quick test_link_serialization;
      Alcotest.test_case "drop-tail conservation" `Quick
        test_drop_tail_and_conservation;
      Alcotest.test_case "ecn marking" `Quick test_ecn_marking;
      Alcotest.test_case "shortest path" `Quick test_routing_shortest_path;
      Alcotest.test_case "equal-cost route tie-break" `Quick
        test_routes_tie_break;
      Alcotest.test_case "multicast tree & prune" `Quick
        test_multicast_tree_and_prune;
      Alcotest.test_case "multicast branching" `Quick
        test_multicast_branching_copies;
      Alcotest.test_case "protected group" `Quick
        test_protected_group_ignores_igmp;
      Alcotest.test_case "router alert" `Quick test_router_alert_not_to_hosts;
      Alcotest.test_case "graft_local" `Quick test_graft_local_holds_tree;
      Alcotest.test_case "packet-count buffer" `Quick test_packet_count_buffer;
      Alcotest.test_case "lan repeats" `Quick test_lan_repeats;
      Alcotest.test_case "saturated link: heap = wheel" `Quick
        test_saturated_link_backends;
      Alcotest.test_case "link steady-state words" `Quick
        test_link_steady_state_words;
    ] )
