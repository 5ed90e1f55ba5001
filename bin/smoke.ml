(* Quick developer smoke test: one FLID-DL session with an attacker next
   to a well-behaved session and two TCP flows (the paper's Figure 1
   setting), then the same with FLID-DS (Figure 7). *)

module Scenario = Mcc_core.Scenario
module Flid = Mcc_mcast.Flid
module Slot_receiver = Mcc_mcast.Slot_receiver
module Meter = Mcc_util.Meter
module Tcp = Mcc_transport.Tcp

let run_case ~mode ~label =
  let t = Scenario.create ~seed:7 ~bottleneck_rate_bps:1_000_000. () in
  let f1 =
    Scenario.add_multicast t ~mode
      ~receivers:
        [ Scenario.receiver ~behavior:(Slot_receiver.Inflate_after 100.) () ]
      ()
  in
  let f2 =
    Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] ()
  in
  let t1 = Scenario.add_tcp t in
  let t2 = Scenario.add_tcp t in
  Scenario.run t ~seconds:200.;
  let m r = Flid.receiver_meter r in
  let kbps meter ~lo ~hi = Meter.mean_kbps meter ~lo ~hi in
  let r1 = List.hd f1.Scenario.receivers in
  let r2 = List.hd f2.Scenario.receivers in
  Printf.printf "== %s ==\n" label;
  Printf.printf
    "  before attack (40-100 s): F1 %.0f  F2 %.0f  T1 %.0f  T2 %.0f kbps\n"
    (kbps (m r1) ~lo:40. ~hi:100.)
    (kbps (m r2) ~lo:40. ~hi:100.)
    (kbps (Tcp.delivered_meter t1) ~lo:40. ~hi:100.)
    (kbps (Tcp.delivered_meter t2) ~lo:40. ~hi:100.);
  Printf.printf
    "  during attack (120-200 s): F1 %.0f  F2 %.0f  T1 %.0f  T2 %.0f kbps\n"
    (kbps (m r1) ~lo:120. ~hi:200.)
    (kbps (m r2) ~lo:120. ~hi:200.)
    (kbps (Tcp.delivered_meter t1) ~lo:120. ~hi:200.)
    (kbps (Tcp.delivered_meter t2) ~lo:120. ~hi:200.);
  Printf.printf "  F1 level %d, F2 level %d, drops %d, events %d\n%!"
    (Flid.receiver_level r1) (Flid.receiver_level r2)
    (Scenario.bottleneck_drops t)
    (Mcc_engine.Sim.events_executed (Scenario.sim t))

let () =
  run_case ~mode:Flid.Plain ~label:"FLID-DL (Figure 1: attack succeeds)";
  run_case ~mode:Flid.Robust ~label:"FLID-DS (Figure 7: attack blocked)"
