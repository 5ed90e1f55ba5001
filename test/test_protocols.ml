(* End-to-end tests of the additional protocol instantiations:
   replicated multicast (paper Fig. 5) and the RLM-like threshold
   protocol (Shamir DELTA). *)

module Sim = Mcc_engine.Sim
module Dumbbell = Mcc_core.Dumbbell
module Defaults = Mcc_core.Defaults
module Router_agent = Mcc_sigma.Router_agent
module Flid = Mcc_mcast.Flid
module Slot_receiver = Mcc_mcast.Slot_receiver
module Slot_sender = Mcc_mcast.Slot_sender
module Rep = Mcc_mcast.Replicated_proto
module Rlm = Mcc_mcast.Rlm_like
module Layering = Mcc_mcast.Layering
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng
module Scenario = Mcc_core.Scenario
module Spec = Mcc_core.Spec
module Oversub = Mcc_mcast.Oversub
module Packet = Mcc_net.Packet
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Multicast = Mcc_net.Multicast
module Lineage = Mcc_obs.Lineage

let build ~bottleneck ~mode =
  let sim = Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:bottleneck () in
  let agent =
    match mode with
    | Flid.Robust -> Some (Router_agent.attach db.Dumbbell.topo db.Dumbbell.right)
    | Flid.Plain -> None
  in
  (sim, db, agent)

(* --- replicated -------------------------------------------------------- *)

let rep_config ~mode =
  Rep.make_config ~id:1 ~base_group:0x2000 ~layering:(Defaults.layering ())
    ~slot_duration:0.25 ~mode ()

let run_replicated ~mode ~behavior ~seconds ~bottleneck =
  let sim, db, _agent = build ~bottleneck ~mode in
  let config = rep_config ~mode in
  let src = Dumbbell.add_sender db in
  let dst = Dumbbell.add_receiver db in
  let prng = Prng.create 17 in
  let _sender =
    Rep.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.split prng) config
  in
  let receiver =
    Rep.receiver_start ~behavior db.Dumbbell.topo ~host:dst
      ~prng:(Prng.split prng) config
  in
  Dumbbell.finalize db;
  Sim.run_until sim seconds;
  receiver

let test_replicated_plain_converges () =
  let r =
    run_replicated ~mode:Flid.Plain ~behavior:Slot_receiver.Well_behaved
      ~seconds:60. ~bottleneck:Defaults.fair_share_bps
  in
  let g = Rep.receiver_level r in
  Alcotest.(check bool)
    (Printf.sprintf "group %d near fair" g)
    true
    (g >= 2 && g <= 4);
  let kbps = Meter.mean_kbps (Rep.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 100. && kbps < 280.)

let test_replicated_robust_converges () =
  let r =
    run_replicated ~mode:Flid.Robust ~behavior:Slot_receiver.Well_behaved
      ~seconds:60. ~bottleneck:Defaults.fair_share_bps
  in
  let kbps = Meter.mean_kbps (Rep.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 100. && kbps < 280.)

let test_replicated_plain_attack () =
  let r =
    run_replicated ~mode:Flid.Plain ~behavior:(Slot_receiver.Inflate_after 20.)
      ~seconds:60. ~bottleneck:500_000.
  in
  let kbps = Meter.mean_kbps (Rep.receiver_meter r) ~lo:30. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "plain inflation hoards (%.0f)" kbps)
    true (kbps > 400.)

let test_replicated_robust_attack_blocked () =
  let r =
    run_replicated ~mode:Flid.Robust ~behavior:(Slot_receiver.Inflate_after 20.)
      ~seconds:60. ~bottleneck:500_000.
  in
  (* Fair share for the only session is the whole 500 kbps bottleneck;
     the point is that guessing keys buys nothing beyond the level the
     receiver could sustain anyway: group <= fair level. *)
  let g = Rep.receiver_level r in
  let fair = Layering.fair_level (Defaults.layering ()) ~rate_bps:500_000. in
  Alcotest.(check bool)
    (Printf.sprintf "group %d within entitlement %d" g fair)
    true (g <= fair + 1)

let test_replicated_group_series () =
  let r =
    run_replicated ~mode:Flid.Plain ~behavior:Slot_receiver.Well_behaved
      ~seconds:30. ~bottleneck:Defaults.fair_share_bps
  in
  Alcotest.(check bool) "switches recorded" true
    (Mcc_util.Series.length (Rep.group_series r) > 0)

(* --- RLM-like ----------------------------------------------------------- *)

let rlm_config ~mode =
  Rlm.make_config ~id:2 ~base_group:0x3000 ~layering:(Defaults.layering ())
    ~slot_duration:0.25 ~mode ()

let run_rlm ~mode ~seconds ~bottleneck =
  let sim, db, _agent = build ~bottleneck ~mode in
  let config = rlm_config ~mode in
  let src = Dumbbell.add_sender db in
  let dst = Dumbbell.add_receiver db in
  let prng = Prng.create 23 in
  let sender =
    Rlm.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.split prng) config
  in
  let receiver =
    Rlm.receiver_start db.Dumbbell.topo ~host:dst ~prng:(Prng.split prng)
      config
  in
  Dumbbell.finalize db;
  Sim.run_until sim seconds;
  (sender, receiver)

let test_rlm_thresholds_decay () =
  let config = rlm_config ~mode:Flid.Plain in
  Alcotest.(check (float 1e-9)) "theta_1" 0.25 (Rlm.threshold config ~level:1);
  Alcotest.(check bool) "decaying" true
    (Rlm.threshold config ~level:5 < Rlm.threshold config ~level:2)

let test_rlm_plain_converges () =
  let _, r =
    run_rlm ~mode:Flid.Plain ~seconds:60. ~bottleneck:Defaults.fair_share_bps
  in
  let level = Rlm.receiver_level r in
  Alcotest.(check bool)
    (Printf.sprintf "level %d near fair" level)
    true
    (level >= 2 && level <= 5);
  let kbps = Meter.mean_kbps (Rlm.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 95. && kbps < 350.)

let test_rlm_robust_converges () =
  let _, r =
    run_rlm ~mode:Flid.Robust ~seconds:60. ~bottleneck:Defaults.fair_share_bps
  in
  let kbps = Meter.mean_kbps (Rlm.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 100. && kbps < 350.)

let test_rlm_tolerates_light_loss () =
  (* A bottleneck slightly under level 3's cumulative rate: occasional
     loss below theta keeps the threshold receiver at its level where a
     single-loss protocol would oscillate downward. *)
  let _, r = run_rlm ~mode:Flid.Plain ~seconds:60. ~bottleneck:220_000. in
  let level = Rlm.receiver_level r in
  Alcotest.(check bool)
    (Printf.sprintf "holds level %d under light loss" level)
    true (level >= 2)

let test_rlm_aligned_threshold () =
  Alcotest.(check (float 1e-9)) "0.25 budget" 0.2
    (Rlm.aligned_threshold 0.25);
  Alcotest.(check (float 1e-9)) "no budget" 0. (Rlm.aligned_threshold 0.)

let test_rlm_reliable_variant () =
  (* Reliability extension: 25% repair packets with the matching key
     threshold.  The session functions end to end and the sender's rate
     is visibly inflated by the repair budget. *)
  let sim = Sim.create () in
  let db =
    Dumbbell.create sim ~bottleneck_rate_bps:(2. *. Defaults.fair_share_bps) ()
  in
  let _agent = Router_agent.attach db.Dumbbell.topo db.Dumbbell.right in
  let repair = 0.25 in
  let config =
    Rlm.make_config ~id:4 ~base_group:0x3800 ~repair_fraction:repair
      ~base_threshold:(Rlm.aligned_threshold repair) ~threshold_decay:1.0
      ~layering:(Defaults.layering ()) ~slot_duration:0.25 ~mode:Flid.Robust ()
  in
  let src = Dumbbell.add_sender db in
  let sender =
    Rlm.sender_start db.Dumbbell.topo ~node:src
      ~prng:(Prng.create 71) config
  in
  let host = Dumbbell.add_receiver db in
  let receiver =
    Rlm.receiver_start db.Dumbbell.topo ~host ~prng:(Prng.create 72) config
  in
  Dumbbell.finalize db;
  Sim.run_until sim 40.;
  ignore sender;
  let kbps = Meter.mean_kbps (Rlm.receiver_meter receiver) ~lo:15. ~hi:40. in
  Alcotest.(check bool)
    (Printf.sprintf "reliable session works (%.0f kbps)" kbps)
    true (kbps > 100.);
  Alcotest.(check bool) "holds a level" true (Rlm.receiver_level receiver >= 1)

let test_rlm_share_overhead_exceeds_xor () =
  (* The paper: Shamir components cannot be reused across levels, so the
     threshold scheme's overhead must exceed the XOR scheme's ~0.8%. *)
  let s, _ =
    run_rlm ~mode:Flid.Robust ~seconds:20. ~bottleneck:Defaults.fair_share_bps
  in
  let stats = Rlm.sender_stats s in
  let ratio =
    float_of_int stats.Slot_sender.delta_bits /. float_of_int stats.Slot_sender.data_bits
  in
  Alcotest.(check bool)
    (Printf.sprintf "share overhead %.2f%%" (100. *. ratio))
    true
    (ratio > 0.008)

(* --- registry-wide receiver semantics ------------------------------------ *)

(* [receiver_leave] means the same for every registered protocol: a
   plain-mode receiver that leaves sends IGMP leaves for what it joined,
   so its access link stops carrying the session's data. *)
let test_leave_prunes_plain () =
  List.iter
    (fun (reg : Spec.registration) ->
      let (module P) = reg.Spec.impl in
      let t = Scenario.create ~seed:5 ~bottleneck_rate_bps:1_000_000. () in
      let s =
        Scenario.add_session (module P) t ~mode:Flid.Plain
          ~receivers:[ Scenario.receiver () ] ()
      in
      let r = List.hd s.Scenario.receivers in
      let bytes () = Meter.total_bytes (P.receiver_meter r) in
      Scenario.run t ~seconds:10.;
      Alcotest.(check bool) (reg.Spec.short ^ ": data flowed") true (bytes () > 0);
      P.receiver_leave r;
      (* Past the leave latency and the packets already in flight. *)
      Scenario.run t ~seconds:11.;
      let after_leave = bytes () in
      Scenario.run t ~seconds:20.;
      Alcotest.(check int)
        (reg.Spec.short ^ ": no session data after leave")
        after_leave (bytes ()))
    Spec.protocols

(* Every registered receiver runs on the slot chassis, so a scenario's
   misbehaving receiver spec is honoured: in plain mode the inflater
   joins every group and holds the top level (or group); under DELTA +
   SIGMA its guessed keys are refused and it never reaches it. *)
let test_inflater_honoured () =
  let top = Defaults.groups in
  List.iter
    (fun (reg : Spec.registration) ->
      let (module P) = reg.Spec.impl in
      let run ~mode ~sigma =
        let t =
          Scenario.create ~seed:9 ~sigma ~bottleneck_rate_bps:1_000_000. ()
        in
        let s =
          Scenario.add_session (module P) t ~mode
            ~receivers:
              [
                Scenario.receiver
                  ~behavior:(Slot_receiver.Inflate_after 10.) ();
              ]
            ()
        in
        let r = List.hd s.Scenario.receivers in
        (* Sampled well within a slot, so no level is missed. *)
        let peak = ref 0 in
        for step = 1 to 800 do
          Scenario.run t ~seconds:(0.05 *. float_of_int step);
          peak := max !peak (P.receiver_level r)
        done;
        (t, P.receiver_level r, !peak)
      in
      let _, level, _ = run ~mode:Flid.Plain ~sigma:false in
      Alcotest.(check int) (reg.Spec.short ^ ": plain inflater holds the top")
        top level;
      let t, _, peak = run ~mode:Flid.Robust ~sigma:true in
      Alcotest.(check bool)
        (reg.Spec.short ^ ": delta+sigma inflater never at the top")
        true (peak < top);
      let rejected =
        match Scenario.agent t with
        | Some agent -> (Router_agent.stats agent).Router_agent.keys_rejected
        | None -> 0
      in
      Alcotest.(check bool)
        (reg.Spec.short ^ ": its guessed keys were refused")
        true (rejected > 0))
    Spec.protocols

(* --- registry-wide sender --------------------------------------------------- *)

(* (group, slot, seq, last) of a session data packet, whatever the
   protocol. *)
let data_coords pkt =
  match pkt.Packet.payload with
  | Flid.Data { group; slot; seq; last; _ }
  | Rep.Rep_data { group; slot; seq; last; _ }
  | Rlm.Rlm_data { group; slot; seq; last; _ } ->
      Some (group, slot, seq, last)
  | _ -> None

(* Every protocol sends through the one slot sender.  A sink host on the
   sender's router joins every group before the sender starts, so the
   sender's access link carries every data packet the sender emits; the
   sender stops on a slot boundary, so every slot it began is complete. *)
let check_sender (type c s r)
    (module P : Mcc_mcast.Protocol.S
      with type config = c
       and type sender = s
       and type receiver = r) ~(stats : s -> Slot_sender.stats)
    ~(stop : s -> unit) ~(tune : c -> c) ~label mode =
  let label = label ^ if mode = Flid.Robust then " robust" else " plain" in
  Lineage.enable ();
  Fun.protect
    ~finally:(fun () ->
      Lineage.disable ();
      Lineage.reset ())
  @@ fun () ->
  let sim, db, _agent = build ~bottleneck:Defaults.fair_share_bps ~mode in
  let id = 7 and start = 1. and slot = P.default_slot mode in
  let config =
    tune
      (P.configure ~id ~base_group:0x4000 ~layering:(Defaults.layering ())
         ~slot_duration:slot ~mode)
  in
  (* Replicated groups all run at cumulative rates: a wide access link
     keeps the check about the sender, not about queueing. *)
  let src = Dumbbell.add_sender ~rate_bps:1e9 db in
  let sink = Dumbbell.add_sender ~rate_bps:1e9 db in
  let sender =
    P.sender_start ~at:start db.Dumbbell.topo ~node:src ~prng:(Prng.create 31)
      config
  in
  Dumbbell.finalize db;
  for g = 1 to Defaults.groups do
    Multicast.host_join db.Dumbbell.topo ~host:sink ~group:(P.group_addr config g)
  done;
  let access = Option.get (Node.link_to src db.Dumbbell.left.Node.id) in
  let packets = ref 0 and bytes = ref 0 and drops = ref 0 in
  let seqs = Hashtbl.create 64 in
  access.Link.on_event <-
    Some
      (fun event pkt ->
        match (event, data_coords pkt) with
        | Link.Tx_start, Some (group, k, seq, last) ->
            incr packets;
            bytes := !bytes + pkt.Packet.size;
            let session, level, born = Lineage.origin pkt.Packet.lineage in
            if session <> id || level <> group then
              Alcotest.failf "%s: g%d slot %d: origin s%d level %d" label group
                k session level;
            let tick j = start +. (float_of_int j *. slot) in
            if born < tick k || born >= tick (k + 1) then
              Alcotest.failf "%s: g%d slot %d #%d sent at %.6f, outside its slot"
                label group k seq born;
            let prev =
              Option.value (Hashtbl.find_opt seqs (group, k)) ~default:[]
            in
            Hashtbl.replace seqs (group, k) ((seq, last) :: prev)
        | Link.Dropped, Some _ -> incr drops
        | _ -> ());
  Sim.run_until sim 11.;
  stop sender;
  Sim.run_until sim 12.;
  Alcotest.(check int) (label ^ ": no access drops") 0 !drops;
  Alcotest.(check bool) (label ^ ": data flowed") true (!packets > 0);
  Hashtbl.iter
    (fun (group, k) rev ->
      let got = List.rev rev in
      let count = List.length got in
      let want = List.init count (fun i -> (i, i = count - 1)) in
      if got <> want then
        Alcotest.failf "%s: g%d slot %d: seqs/last flags out of order" label
          group k)
    seqs;
  let st = stats sender in
  Alcotest.(check int) (label ^ ": data bits") (!packets * 576 * 8)
    st.Slot_sender.data_bits;
  Alcotest.(check int) (label ^ ": delta bits")
    ((!bytes - (!packets * 576)) * 8)
    st.Slot_sender.delta_bits;
  Alcotest.(check bool)
    (label ^ ": delta overhead iff robust")
    (mode = Flid.Robust) (st.Slot_sender.delta_bits > 0)

let sender_check = function
  | Spec.Flid_ds -> check_sender (module Flid) ~stats:Flid.sender_stats
      ~stop:Flid.sender_stop ~tune:Fun.id
  | Spec.Rlm_threshold -> check_sender (module Rlm) ~stats:Rlm.sender_stats
      ~stop:Rlm.sender_stop ~tune:Fun.id
  | Spec.Replicated -> check_sender (module Rep) ~stats:Rep.sender_stats
      ~stop:Rep.sender_stop ~tune:Fun.id
  | Spec.Oversub -> check_sender (module Oversub) ~stats:Oversub.sender_stats
      ~stop:Oversub.sender_stop ~tune:Fun.id

let test_slot_sender () =
  List.iter
    (fun (reg : Spec.registration) ->
      List.iter
        (sender_check reg.Spec.tag ~label:reg.Spec.short)
        [ Flid.Plain; Flid.Robust ])
    Spec.protocols;
  (* The reliability extension: repair packets join each slot. *)
  check_sender (module Rlm) ~stats:Rlm.sender_stats ~stop:Rlm.sender_stop
    ~tune:(fun c -> { c with Rlm.repair_fraction = 0.5 })
    ~label:"rlm repair 0.5" Flid.Robust

let suite =
  ( "protocols",
    [
      Alcotest.test_case "replicated plain converges" `Slow
        test_replicated_plain_converges;
      Alcotest.test_case "replicated robust converges" `Slow
        test_replicated_robust_converges;
      Alcotest.test_case "replicated plain attack" `Slow
        test_replicated_plain_attack;
      Alcotest.test_case "replicated robust attack blocked" `Slow
        test_replicated_robust_attack_blocked;
      Alcotest.test_case "replicated series" `Slow test_replicated_group_series;
      Alcotest.test_case "receiver_leave prunes plain membership" `Slow
        test_leave_prunes_plain;
      Alcotest.test_case "every protocol honours an inflater" `Slow
        test_inflater_honoured;
      Alcotest.test_case "slot sender: timing, sequence, overhead, lineage"
        `Slow test_slot_sender;
      Alcotest.test_case "rlm thresholds" `Quick test_rlm_thresholds_decay;
      Alcotest.test_case "rlm plain converges" `Slow test_rlm_plain_converges;
      Alcotest.test_case "rlm robust converges" `Slow test_rlm_robust_converges;
      Alcotest.test_case "rlm tolerates light loss" `Slow
        test_rlm_tolerates_light_loss;
      Alcotest.test_case "rlm aligned threshold" `Quick
        test_rlm_aligned_threshold;
      Alcotest.test_case "rlm reliable variant" `Slow test_rlm_reliable_variant;
      Alcotest.test_case "rlm share overhead" `Slow
        test_rlm_share_overhead_exceeds_xor;
    ] )
