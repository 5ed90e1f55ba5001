module Scenario = Mcc_core.Scenario
module Flid = Mcc_mcast.Flid
module Slot_sender = Mcc_mcast.Slot_sender
module Layering = Mcc_mcast.Layering
module Meter = Mcc_util.Meter
module Series = Mcc_util.Series
module Router_agent = Mcc_sigma.Router_agent
module Defaults = Mcc_core.Defaults

let test_layering_rates () =
  let l = Layering.make ~groups:10 ~min_rate_bps:100_000. ~factor:1.5 in
  Alcotest.(check (float 1.)) "R1" 100_000. (Layering.cumulative_rate l ~level:1);
  Alcotest.(check (float 1.)) "R2" 150_000. (Layering.cumulative_rate l ~level:2);
  Alcotest.(check (float 1.)) "layer 2" 50_000. (Layering.layer_rate l ~group:2);
  Alcotest.(check (float 0.)) "R0" 0. (Layering.cumulative_rate l ~level:0);
  Alcotest.(check int) "fair level at 250k" 3
    (Layering.fair_level l ~rate_bps:250_000.);
  Alcotest.(check int) "fair level below minimum" 0
    (Layering.fair_level l ~rate_bps:50_000.);
  Alcotest.(check int) "fair level above top" 10
    (Layering.fair_level l ~rate_bps:1e9)

let test_layering_invalid () =
  Alcotest.(check bool) "factor 1" true
    (try
       ignore (Layering.make ~groups:2 ~min_rate_bps:1. ~factor:1.);
       false
     with Invalid_argument _ -> true)

let single_session ~mode ~seconds ?(bottleneck = Defaults.fair_share_bps) () =
  let t = Scenario.create ~seed:5 ~bottleneck_rate_bps:bottleneck () in
  let s = Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] () in
  Scenario.run t ~seconds;
  (t, s, List.hd s.Scenario.receivers)

let test_plain_converges_to_fair_level () =
  let _, _, r = single_session ~mode:Flid.Plain ~seconds:60. () in
  (* Fair share 250 kbps: level 3 (225 kbps cumulative) is sustainable,
     level 4 (337 kbps) is not; probing may briefly hold 4. *)
  let level = Flid.receiver_level r in
  Alcotest.(check bool)
    (Printf.sprintf "level %d near fair" level)
    true
    (level >= 2 && level <= 4);
  let kbps = Meter.mean_kbps (Flid.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 150. && kbps < 260.)

let test_robust_converges_to_fair_level () =
  let _, _, r = single_session ~mode:Flid.Robust ~seconds:60. () in
  let kbps = Meter.mean_kbps (Flid.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 150. && kbps < 260.)

let test_sender_stats_accumulate () =
  let _, s, _ = single_session ~mode:Flid.Robust ~seconds:10. () in
  let stats = Flid.sender_stats s.Scenario.sender in
  Alcotest.(check bool) "slots ticked" true (stats.Slot_sender.slots >= 38);
  Alcotest.(check bool) "data flowed" true (stats.Slot_sender.data_bits > 0);
  Alcotest.(check bool) "delta fields counted" true (stats.Slot_sender.delta_bits > 0);
  Alcotest.(check bool) "specials sent" true (stats.Slot_sender.sigma_packets > 0);
  Alcotest.(check (float 0.)) "repetition-2 expansion" 2. stats.Slot_sender.fec_expansion

let test_sender_keys_exposed () =
  let _, s, _ = single_session ~mode:Flid.Robust ~seconds:5. () in
  let stats = Flid.sender_stats s.Scenario.sender in
  let slot = stats.Slot_sender.slots + 1 in
  (* The most recently guarded slots are current+1 and current+2. *)
  Alcotest.(check bool) "keys retained" true
    (Flid.sender_keys_for_slot s.Scenario.sender ~slot <> None)

let attack_scenario ~mode ~seconds ~attack_at =
  let t = Scenario.create ~seed:7 ~bottleneck_rate_bps:1_000_000. () in
  let f1 =
    Scenario.add_multicast t ~mode
      ~receivers:[ Scenario.receiver ~behavior:(Flid.Inflate_after attack_at) () ]
      ()
  in
  let f2 = Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] () in
  Scenario.run t ~seconds;
  (t, List.hd f1.Scenario.receivers, List.hd f2.Scenario.receivers)

let test_plain_attack_succeeds () =
  let _, r1, r2 = attack_scenario ~mode:Flid.Plain ~seconds:80. ~attack_at:40. in
  let after m = Meter.mean_kbps m ~lo:50. ~hi:80. in
  let f1 = after (Flid.receiver_meter r1) in
  let f2 = after (Flid.receiver_meter r2) in
  Alcotest.(check bool)
    (Printf.sprintf "attacker hoards (%.0f)" f1)
    true (f1 > 600.);
  Alcotest.(check bool)
    (Printf.sprintf "victim starved (%.0f)" f2)
    true (f2 < 100.);
  Alcotest.(check int) "attacker at top level" 10 (Flid.receiver_level r1)

let test_robust_attack_blocked () =
  let t, r1, r2 = attack_scenario ~mode:Flid.Robust ~seconds:80. ~attack_at:40. in
  let before m = Meter.mean_kbps m ~lo:20. ~hi:40. in
  let after m = Meter.mean_kbps m ~lo:50. ~hi:80. in
  let f1b = before (Flid.receiver_meter r1) in
  let f1a = after (Flid.receiver_meter r1) in
  let f2a = after (Flid.receiver_meter r2) in
  Alcotest.(check bool)
    (Printf.sprintf "attacker capped (%.0f -> %.0f)" f1b f1a)
    true
    (f1a < 2. *. Mcc_core.Defaults.fair_share_bps /. 1000.);
  Alcotest.(check bool)
    (Printf.sprintf "victim keeps share (%.0f)" f2a)
    true (f2a > 80.);
  (* The attacker's guessed keys leave a trail at the edge router. *)
  match Scenario.agent t with
  | Some agent ->
      let total_guesses =
        List.fold_left
          (fun acc group ->
            let rec sum slot acc =
              if slot > 400 then acc
              else sum (slot + 1) (acc + Router_agent.guess_count agent ~group ~slot)
            in
            sum 0 acc)
          0
          (Router_agent.known_groups agent)
      in
      Alcotest.(check bool) "guesses tallied" true (total_guesses > 10)
  | None -> Alcotest.fail "robust scenario must have an agent"

let test_determinism () =
  let run () =
    let _, _, r = single_session ~mode:Flid.Robust ~seconds:30. () in
    Meter.total_bytes (Flid.receiver_meter r)
  in
  Alcotest.(check int) "same seed, same trace" (run ()) (run ())

let test_level_series_recorded () =
  let _, _, r = single_session ~mode:Flid.Plain ~seconds:30. () in
  Alcotest.(check bool) "level changes recorded" true
    (Series.length (Flid.level_series r) > 0);
  Alcotest.(check bool) "congestion events seen" true
    (Flid.congestion_events r > 0)

let test_late_joiner_syncs () =
  let t = Scenario.create ~seed:13 ~bottleneck_rate_bps:Defaults.fair_share_bps () in
  let s =
    Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:[ Scenario.receiver (); Scenario.receiver ~at:10. () ]
      ()
  in
  Scenario.run t ~seconds:60.;
  match s.Scenario.receivers with
  | [ early; late ] ->
      let ke = Meter.mean_kbps (Flid.receiver_meter early) ~lo:30. ~hi:60. in
      let kl = Meter.mean_kbps (Flid.receiver_meter late) ~lo:30. ~hi:60. in
      Alcotest.(check bool)
        (Printf.sprintf "late joiner converges (%.0f vs %.0f)" ke kl)
        true
        (abs_float (ke -. kl) < 0.3 *. ke)
  | _ -> Alcotest.fail "expected two receivers"

let test_ecn_scrub_breaks_keys () =
  (* With ECN on and a mark-everything threshold, scrubbed components
     must keep a would-be-uncongested receiver from opening upper
     groups... here we simply check the session still works end to end
     with ECN enabled and marks occur. *)
  let t =
    Scenario.create ~seed:21 ~ecn:true ~bottleneck_rate_bps:Defaults.fair_share_bps ()
  in
  let s = Scenario.add_multicast t ~mode:Flid.Robust ~receivers:[ Scenario.receiver () ] () in
  Scenario.run t ~seconds:40.;
  let r = List.hd s.Scenario.receivers in
  let kbps = Meter.mean_kbps (Flid.receiver_meter r) ~lo:20. ~hi:40. in
  Alcotest.(check bool) "session alive under ECN" true (kbps > 80.)

let test_interface_keys_end_to_end () =
  (* With collusion-resistant per-interface padding enabled, honest
     receivers on distinct interfaces still converge normally: the
     router compensates their lower keys transparently. *)
  let config =
    {
      Mcc_sigma.Router_agent.default_config with
      Mcc_sigma.Router_agent.interface_keys = true;
    }
  in
  let t =
    Scenario.create ~seed:67 ~agent_config:config
      ~bottleneck_rate_bps:(2. *. Defaults.fair_share_bps) ()
  in
  let s =
    Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:[ Scenario.receiver (); Scenario.receiver () ]
      ()
  in
  Scenario.run t ~seconds:60.;
  List.iter
    (fun r ->
      let kbps = Meter.mean_kbps (Flid.receiver_meter r) ~lo:20. ~hi:60. in
      Alcotest.(check bool)
        (Printf.sprintf "receiver works under padding (%.0f)" kbps)
        true (kbps > 150.))
    s.Scenario.receivers

let suite =
  ( "flid",
    [
      Alcotest.test_case "layering rates" `Quick test_layering_rates;
      Alcotest.test_case "layering invalid" `Quick test_layering_invalid;
      Alcotest.test_case "plain converges" `Slow test_plain_converges_to_fair_level;
      Alcotest.test_case "robust converges" `Slow
        test_robust_converges_to_fair_level;
      Alcotest.test_case "sender stats" `Quick test_sender_stats_accumulate;
      Alcotest.test_case "sender keys exposed" `Quick test_sender_keys_exposed;
      Alcotest.test_case "plain attack succeeds" `Slow test_plain_attack_succeeds;
      Alcotest.test_case "robust attack blocked" `Slow test_robust_attack_blocked;
      Alcotest.test_case "determinism" `Slow test_determinism;
      Alcotest.test_case "level series" `Quick test_level_series_recorded;
      Alcotest.test_case "late joiner" `Slow test_late_joiner_syncs;
      Alcotest.test_case "works under ecn" `Slow test_ecn_scrub_breaks_keys;
      Alcotest.test_case "interface keys end-to-end" `Slow
        test_interface_keys_end_to_end;
    ] )
