(* Threshold-based congestion control (RLM / MLDA / WEBRC style) with
   the Shamir-threshold DELTA instantiation (paper Section 3.1.2).

   Two receivers face background noise from an on-off CBR: a
   single-loss protocol (FLID-DS) backs off on every lossy slot, while
   the threshold receiver holds its level as long as the loss rate stays
   below theta_g.  The demo also prints the price: Shamir components
   cannot be reused across levels, so the threshold scheme's per-packet
   overhead dwarfs the XOR scheme's.

   Run with:  dune exec examples/threshold_rlm.exe *)

module Sim = Mcc_engine.Sim
module Dumbbell = Mcc_core.Dumbbell
module Defaults = Mcc_core.Defaults
module Flid = Mcc_mcast.Flid
module Slot_sender = Mcc_mcast.Slot_sender
module Rlm = Mcc_mcast.Rlm_like
module Router_agent = Mcc_sigma.Router_agent
module On_off = Mcc_transport.On_off
module Packet = Mcc_net.Packet
module Node = Mcc_net.Node
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng

let run_threshold () =
  let sim = Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:300_000. () in
  let _agent = Router_agent.attach db.Dumbbell.topo db.Dumbbell.right in
  let prng = Prng.create 29 in
  let config =
    Rlm.make_config ~id:1 ~base_group:0x6000 ~layering:(Defaults.layering ())
      ~slot_duration:0.25 ~mode:Flid.Robust ()
  in
  let src = Dumbbell.add_sender db in
  let sender =
    Rlm.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.split prng) config
  in
  let host = Dumbbell.add_receiver db in
  let receiver =
    Rlm.receiver_start db.Dumbbell.topo ~host ~prng:(Prng.split prng) config
  in
  (* Light periodic interference: 60 kbps, 1 s on / 3 s off. *)
  let cbr_src = Dumbbell.add_sender db in
  let cbr_dst = Dumbbell.add_receiver db in
  ignore
    (On_off.start db.Dumbbell.topo ~src:cbr_src
       ~dst:(Packet.Unicast cbr_dst.Node.id) ~rate_bps:60_000.
       ~size:Defaults.packet_size ~on_period:1. ~off_period:3. ());
  Dumbbell.finalize db;
  Sim.run_until sim 60.;
  (sender, receiver)

let () =
  let sender, receiver = run_threshold () in
  let theta g =
    Rlm.threshold
      (Rlm.make_config ~id:0 ~base_group:0 ~layering:(Defaults.layering ())
         ~slot_duration:0.25 ~mode:Flid.Plain ())
      ~level:g
  in
  Printf.printf
    "Threshold-based layered multicast (Shamir DELTA), 300 kbps bottleneck\n\
     with a light on-off interferer.\n\n";
  Printf.printf "  per-level loss tolerance: ";
  for g = 1 to 5 do
    Printf.printf "theta_%d=%.1f%% " g (100. *. theta g)
  done;
  Printf.printf "\n\n  receiver level after 60 s: %d\n"
    (Rlm.receiver_level receiver);
  Printf.printf "  mean throughput 20-60 s:   %.0f kbps\n"
    (Meter.mean_kbps (Rlm.receiver_meter receiver) ~lo:20. ~hi:60.);
  let stats = Rlm.sender_stats sender in
  let share_pct =
    100.
    *. float_of_int stats.Slot_sender.delta_bits
    /. float_of_int stats.Slot_sender.data_bits
  in
  Printf.printf "\n  Shamir share overhead:     %.2f%% of data bits\n" share_pct;
  Printf.printf "  XOR-scheme overhead:       ~0.79%% (paper Section 5.4)\n";
  Printf.printf
    "  -> the paper's point: threshold schemes cannot reuse components\n\
    \     across levels, so their in-band key distribution costs %.0fx more.\n"
    (share_pct /. 0.79)
