(* Replicated multicast (paper Section 3.1.2, Figure 5): a "radio"
   station streams the same programme at five quality tiers, each in its
   own group; a receiver subscribes to exactly one tier and switches
   tiers with congestion.  The replicated DELTA instantiation guards
   every tier with per-group keys.

   The demo drives the receiver through a congestion episode — an on-off
   CBR burst — and prints the tier track.

   Run with:  dune exec examples/replicated_radio.exe *)

module Sim = Mcc_engine.Sim
module Dumbbell = Mcc_core.Dumbbell
module Defaults = Mcc_core.Defaults
module Flid = Mcc_mcast.Flid
module Rep = Mcc_mcast.Replicated_proto
module Layering = Mcc_mcast.Layering
module Router_agent = Mcc_sigma.Router_agent
module On_off = Mcc_transport.On_off
module Packet = Mcc_net.Packet
module Node = Mcc_net.Node
module Meter = Mcc_util.Meter
module Series = Mcc_util.Series
module Prng = Mcc_util.Prng

let () =
  let sim = Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:600_000. () in
  let _agent = Router_agent.attach db.Dumbbell.topo db.Dumbbell.right in
  let prng = Prng.create 11 in
  (* Five tiers: 64, 96, 144, 216, 324 kbps. *)
  let layering = Layering.make ~groups:5 ~min_rate_bps:64_000. ~factor:1.5 in
  let config =
    Rep.make_config ~id:1 ~base_group:0x5000 ~layering ~slot_duration:0.25
      ~mode:Flid.Robust ()
  in
  let src = Dumbbell.add_sender db in
  let _sender =
    Rep.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.split prng) config
  in
  let listener_host = Dumbbell.add_receiver db in
  let listener =
    Rep.receiver_start db.Dumbbell.topo ~host:listener_host
      ~prng:(Prng.split prng) config
  in
  (* A 450 kbps burst squeezes the 600 kbps bottleneck between t=30 and
     t=50. *)
  let cbr_src = Dumbbell.add_sender db in
  let cbr_dst = Dumbbell.add_receiver db in
  ignore
    (On_off.start ~at:30. ~until:50. db.Dumbbell.topo ~src:cbr_src
       ~dst:(Packet.Unicast cbr_dst.Node.id) ~rate_bps:450_000.
       ~size:Defaults.packet_size ~on_period:20. ~off_period:1. ());
  Dumbbell.finalize db;
  Sim.run_until sim 80.;

  Printf.printf
    "Replicated-multicast radio: 5 tiers (64..324 kbps), 600 kbps \
     bottleneck,\na 450 kbps burst during [30 s, 50 s].\n\n";
  Printf.printf "  tier track (time -> tier):\n";
  List.iter
    (fun (time, tier) -> Printf.printf "    %5.1f s -> tier %.0f\n" time tier)
    (Series.to_list (Rep.group_series listener));
  Printf.printf "\n  final tier:        %d\n" (Rep.receiver_level listener);
  Printf.printf "  mean rate 10-30 s: %.0f kbps (before burst)\n"
    (Meter.mean_kbps (Rep.receiver_meter listener) ~lo:10. ~hi:30.);
  Printf.printf "  mean rate 35-50 s: %.0f kbps (during burst)\n"
    (Meter.mean_kbps (Rep.receiver_meter listener) ~lo:35. ~hi:50.);
  Printf.printf "  mean rate 60-80 s: %.0f kbps (recovered)\n"
    (Meter.mean_kbps (Rep.receiver_meter listener) ~lo:60. ~hi:80.)
