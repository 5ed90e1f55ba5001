(* The paper's headline experiment as a demo: an inflating receiver in a
   plain FLID-DL session captures almost the whole bottleneck (Figure 1);
   the identical attack against FLID-DS is stopped cold at the edge
   router because the attacker cannot reconstruct keys for groups it is
   not eligible for (Figure 7).

   Run with:  dune exec examples/attack_demo.exe *)

module Scenario = Mcc_core.Scenario
module Defaults = Mcc_core.Defaults
module Forensics = Mcc_core.Forensics
module Flid = Mcc_mcast.Flid
module Slot_receiver = Mcc_mcast.Slot_receiver
module Tcp = Mcc_transport.Tcp
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng
module Router_agent = Mcc_sigma.Router_agent
module Strategy = Mcc_attack.Strategy
module Spec = Mcc_core.Spec
module Timeseries = Mcc_obs.Timeseries

let attack_at = 100.
let horizon = 200.

(* F1's misbehaviour comes from the attack subsystem: the
   persistent-inflation strategy (paper §3.1) adapted into a session
   member.  Under Plain mode the member degrades to the IGMP
   join-everything attack; under Robust it guesses keys for the groups
   it is not eligible for. *)
let inflater ~mode =
  let strat = Strategy.of_kind Spec.Persistent_inflation in
  let slot_duration =
    match mode with
    | Flid.Plain -> Defaults.flid_dl_slot
    | Flid.Robust -> Defaults.flid_ds_slot
  in
  let inst =
    strat.Strategy.instantiate ~attack_at ~slot_duration
      ~prng:(Prng.create 7919)
  in
  Slot_receiver.Adversarial (Strategy.member inst)

let run ~mode =
  (* Enable sampling before the scenario builds its Sim: the event loop
     installs the periodic sampler at creation time. *)
  Timeseries.enable ~dt:1.0 ();
  let t = Scenario.create ~seed:7 ~bottleneck_rate_bps:1_000_000. () in
  let f1 =
    Scenario.add_multicast t ~mode
      ~receivers:[ Scenario.receiver ~behavior:(inflater ~mode) () ]
      ()
  in
  let f2 = Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] () in
  let t1 = Scenario.add_tcp t in
  let t2 = Scenario.add_tcp t in
  Scenario.run t ~seconds:horizon;
  let series = Timeseries.snapshot () in
  Timeseries.disable ();
  (t, List.hd f1.Scenario.receivers, List.hd f2.Scenario.receivers, t1, t2, series)

let report ~label (t, r1, r2, t1, t2, series) =
  let before m = Meter.mean_kbps m ~lo:50. ~hi:attack_at in
  let after m = Meter.mean_kbps m ~lo:(attack_at +. 10.) ~hi:horizon in
  Printf.printf "%s\n" label;
  Printf.printf "  %-22s %12s %12s\n" "receiver" "before" "during attack";
  let row name m =
    Printf.printf "  %-22s %9.0f kbps %9.0f kbps\n" name (before m) (after m)
  in
  row "F1 (misbehaving)" (Flid.receiver_meter r1);
  row "F2" (Flid.receiver_meter r2);
  row "T1 (TCP Reno)" (Tcp.delivered_meter t1);
  row "T2 (TCP Reno)" (Tcp.delivered_meter t2);
  (* Sampled goodput over the whole run: the attack (and, under SIGMA,
     the recovery) is visible in the shape. *)
  List.iter
    (fun (name, points) ->
      let suffix = ".goodput_kbps" in
      let ls = String.length suffix and ln = String.length name in
      if ln >= ls && String.sub name (ln - ls) ls = suffix then
        Printf.printf "  %-22s [%s] 0..%.0fs\n" name
          (Forensics.sparkline ~width:50 points)
          horizon)
    series;
  (match Scenario.agent t with
  | Some agent ->
      let stats = Router_agent.stats agent in
      Printf.printf
        "  edge router: %d keys rejected, %d distinct invalid keys, %d \
         grace admissions, %d lockouts\n"
        stats.Router_agent.keys_rejected stats.Router_agent.distinct_guesses
        stats.Router_agent.grace_admissions stats.Router_agent.lockouts;
      (match Router_agent.failure_audit agent with
      | [] -> Printf.printf "  no key-failure spans: every submitted key validated\n"
      | spans ->
          Printf.printf "  key-failure forensics timeline:\n";
          List.iter
            (fun (f : Router_agent.key_failure) ->
              match f.Router_agent.kf_ended with
              | Some ended ->
                  Printf.printf
                    "    t=%6.1fs receiver %d starts failing validation; %d \
                     rejects until t=%.1fs, then back to valid keys\n"
                    f.Router_agent.kf_first f.Router_agent.kf_receiver
                    f.Router_agent.kf_rejects ended
              | None ->
                  Printf.printf
                    "    t=%6.1fs receiver %d starts failing validation; %d \
                     rejects through t=%.1fs, never recovers (inflated \
                     subscription held)\n"
                    f.Router_agent.kf_first f.Router_agent.kf_receiver
                    f.Router_agent.kf_rejects f.Router_agent.kf_last)
            spans)
  | None -> ());
  print_newline ()

let () =
  Printf.printf
    "Inflated subscription: 2 multicast + 2 TCP sessions, 1 Mbps bottleneck;\n\
     receiver F1 turns greedy at t=%.0fs and tries to join all 10 groups.\n\n"
    attack_at;
  report ~label:"FLID-DL (unprotected, paper Figure 1):" (run ~mode:Flid.Plain);
  report
    ~label:"FLID-DS (DELTA + SIGMA, paper Figure 7):"
    (run ~mode:Flid.Robust)
