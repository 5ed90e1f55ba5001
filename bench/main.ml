(* Benchmark harness: regenerates every experiment figure of the paper
   (Figures 1, 7, 8a-8h, 9a, 9b) and runs Bechamel microbenchmarks of
   the hot primitives.

   Usage:
     dune exec bench/main.exe                 # all figures, paper durations
     dune exec bench/main.exe -- --quick      # abbreviated durations
     dune exec bench/main.exe -- --jobs 4     # sweeps across 4 domains
     dune exec bench/main.exe -- fig1 fig7    # a subset
     dune exec bench/main.exe -- micro        # microbenchmarks only

   Regression gate: --save-baseline FILE writes each figure's events/s
   to FILE as JSON; a later run with --baseline FILE (optionally
   --threshold F, default 0.25) compares itself against that file and
   exits nonzero if any common figure regressed by more than the
   fraction F.  A bare --baseline gates against the committed
   BENCH_baseline.json (saved with --quick, jobs 1).  Compare like
   against like: same --quick/--jobs; across machines, loosen
   --threshold (events/s is machine-dependent).

   --sched heap|wheel runs every figure on that scheduler backend; the
   churn-heap/churn-wheel pair always pins its own backend and prints
   the wheel/heap speedup.

   --record appends this invocation's figures to the run ledger
   (.mcc/ledger, override with MCC_LEDGER), so `mcc history` renders
   the events/s trajectory across bench runs and `mcc diff` compares
   any two of them. *)

module E = Mcc_core.Experiments
module Report = Mcc_core.Report
module Runner = Mcc_core.Runner
module Spec = Mcc_core.Spec
module Flid = Mcc_mcast.Flid
module Slot_receiver = Mcc_mcast.Slot_receiver
module Slot_sender = Mcc_mcast.Slot_sender
module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Scheduler = Mcc_engine.Scheduler
module Sim = Mcc_engine.Sim

let fmt = Format.std_formatter

let quick = ref false
let jobs = ref 1
let sched : Scheduler.backend option ref = ref None
let requested : string list ref = ref []
let baseline_path : string option ref = ref None
let save_baseline_path : string option ref = ref None
let threshold = ref 0.25
let record = ref false

let duration full = if !quick then full /. 4. else full

(* Event-loop throughput per figure: batch runs report through their
   profiles (summed here), while direct Scenario runs land in the main
   domain's "engine.events" counter; the driver reads both. *)
let events_total = ref 0

(* --quick scales a whole spec (attack times, burst windows, joins)
   rather than just the duration, so abbreviated runs keep their
   measurement windows inside the simulated horizon. *)
let q spec = if !quick then Spec.scale_time spec ~factor:0.25 else spec

let run_specs specs =
  Runner.run_specs_profiled ~jobs:!jobs ?sched:!sched (List.map q specs)
  |> List.map (fun (result, _metrics, _series, profile) ->
         events_total := !events_total + profile.Profile.events;
         result)

let run_spec spec = List.hd (run_specs [ spec ])

let attack mode =
  match run_spec (Spec.Attack { Spec.default_attack with Spec.mode = mode }) with
  | E.Attack r -> r
  | _ -> assert false

let fig1 () =
  Report.heading fmt
    "Figure 1: impact of inflated subscription on FLID-DL (1 Mbps \
     bottleneck, F1 misbehaves at t=100s)";
  Report.attack fmt (attack Flid.Plain)

let fig7 () =
  Report.heading fmt
    "Figure 7: protection with DELTA and SIGMA (same scenario, FLID-DS)";
  Report.attack fmt (attack Flid.Robust)

let sweep_counts () =
  if !quick then [ 1; 2; 4; 8 ] else [ 1; 2; 4; 6; 8; 10; 12; 14; 16; 18 ]

let sweep_specs ?(cross_traffic = false) mode =
  List.map
    (fun sessions ->
      Spec.Sweep
        { Spec.seed = 11 + sessions; duration = 200.; sessions; cross_traffic;
          mode })
    (sweep_counts ())

let sweep_point = function E.Sweep_point p -> p | _ -> assert false
let sweep_points specs = List.map sweep_point (run_specs specs)

let fig8a () =
  Report.heading fmt
    "Figure 8a: FLID-DL throughput vs number of sessions (no cross traffic)";
  Report.sweep fmt (sweep_points (sweep_specs Flid.Plain))

let fig8b () =
  Report.heading fmt
    "Figure 8b: FLID-DS throughput vs number of sessions (no cross traffic)";
  Report.sweep fmt (sweep_points (sweep_specs Flid.Robust))

(* Both variants of a comparison figure go into one batch, so --jobs
   parallelises across the full surface, not per half. *)
let sweep_pair ?cross_traffic () =
  let dl_specs = sweep_specs ?cross_traffic Flid.Plain in
  let points =
    List.map sweep_point
      (run_specs (dl_specs @ sweep_specs ?cross_traffic Flid.Robust))
  in
  let n = List.length dl_specs in
  (List.filteri (fun i _ -> i < n) points, List.filteri (fun i _ -> i >= n) points)

let print_pair (dl, ds) =
  Format.fprintf fmt "# sessions  FLID-DL avg  FLID-DS avg@.";
  List.iter2
    (fun (a : E.sweep_point) (b : E.sweep_point) ->
      Format.fprintf fmt "%2d  %.1f  %.1f@." a.E.sessions a.E.average_kbps
        b.E.average_kbps)
    dl ds;
  Format.fprintf fmt "@."

let fig8c () =
  Report.heading fmt
    "Figure 8c: average throughput, FLID-DL vs FLID-DS (no cross traffic)";
  print_pair (sweep_pair ())

let fig8d () =
  Report.heading fmt
    "Figure 8d: average throughput with TCP and on-off CBR cross traffic";
  print_pair (sweep_pair ~cross_traffic:true ())

let fig8e () =
  Report.heading fmt
    "Figure 8e: responsiveness to an 800 Kbps CBR burst (45-75 s)";
  let results =
    run_specs
      [
        Spec.Responsiveness
          { Spec.default_responsiveness with Spec.mode = Flid.Plain };
        Spec.Responsiveness
          { Spec.default_responsiveness with Spec.mode = Flid.Robust };
      ]
  in
  List.iter2
    (fun label result ->
      Format.fprintf fmt "-- %s --@." label;
      match result with
      | E.Responsiveness r -> Report.responsiveness fmt r
      | _ -> assert false)
    [ "FLID-DL"; "FLID-DS" ] results

let fig8f () =
  Report.heading fmt
    "Figure 8f: average throughput vs heterogeneous round-trip times";
  let results =
    run_specs
      [
        Spec.Rtt { Spec.default_rtt with Spec.mode = Flid.Plain };
        Spec.Rtt { Spec.default_rtt with Spec.mode = Flid.Robust };
      ]
  in
  List.iter2
    (fun label result ->
      Format.fprintf fmt "-- %s --@." label;
      match result with E.Rtt r -> Report.rtt fmt r | _ -> assert false)
    [ "FLID-DL"; "FLID-DS" ] results

let convergence mode =
  match
    Runner.run_spec (Spec.Convergence { Spec.default_convergence with Spec.mode })
  with
  | E.Convergence r -> r
  | _ -> assert false

let fig8g () =
  Report.heading fmt
    "Figure 8g: subscription convergence, FLID-DL (joins at 0/10/20/30 s)";
  Report.convergence fmt (convergence Flid.Plain)

let fig8h () =
  Report.heading fmt "Figure 8h: subscription convergence, FLID-DS";
  Report.convergence fmt (convergence Flid.Robust)

let overhead_points values axis =
  run_specs
    (List.map
       (fun (groups, slot) ->
         Spec.Overhead { Spec.default_overhead with Spec.groups; slot; axis })
       values)
  |> List.map (function E.Overhead p -> p | _ -> assert false)

let fig9a () =
  Report.heading fmt
    "Figure 9a: DELTA / SIGMA communication overhead vs number of groups";
  let groups_list =
    if !quick then [ 2; 6; 10; 20 ] else [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]
  in
  Report.overhead fmt ~x_label:"groups"
    (overhead_points (List.map (fun g -> (g, 0.25)) groups_list) Spec.Groups)

let fig9b () =
  Report.heading fmt
    "Figure 9b: DELTA / SIGMA communication overhead vs slot duration";
  let slots =
    if !quick then [ 0.2; 0.5; 1.0 ]
    else [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
  in
  Report.overhead fmt ~x_label:"slot_s"
    (overhead_points (List.map (fun s -> (10, s)) slots) Spec.Slot)

(* --- Beyond the paper's figures: Section 3.2.3 and design ablations ---- *)

let partial () =
  Report.heading fmt
    "Incremental deployment (paper Section 3.2.3): the same attack behind \
     a SIGMA edge router vs a legacy IGMP router";
  let r =
    match run_spec (Spec.Partial Spec.default_partial) with
    | E.Partial r -> r
    | _ -> assert false
  in
  Report.row fmt "attacker behind SIGMA edge"
    [ ("kbps", r.E.protected_attacker_kbps) ];
  Report.row fmt "attacker behind legacy edge"
    [ ("kbps", r.E.unprotected_attacker_kbps) ];
  Report.row fmt "honest receiver (SIGMA edge)" [ ("kbps", r.E.honest_kbps) ];
  Format.fprintf fmt
    "SIGMA prevents local inflation even partially deployed; the legacy\n\
     edge admits the attack, which then also damages everyone sharing the\n\
     bottleneck (the honest receiver's collapse is that collateral).@.@."

(* Ablation: FEC scheme for SIGMA's special packets.  Heavy congestion
   (an unprotected hog on the same bottleneck) drops special packets;
   without redundancy the edge router's keystore develops gaps and even
   honest keys bounce (counted by the guess tally). *)
let ablation_fec () =
  Report.heading fmt
    "Ablation: FEC scheme for key distribution to edge routers";
  Format.fprintf fmt
    "# scheme            honest_kbps  keystore_misses  z@.";
  List.iter
    (fun (label, scheme) ->
      let t =
        Mcc_core.Scenario.create ~seed:51 ~packet_buffer:true
          ~bottleneck_rate_bps:500_000. ()
      in
      let session =
        Mcc_core.Scenario.add_multicast
          ~tune:(fun c -> { c with Flid.fec_scheme = scheme })
          t ~mode:Flid.Robust
          ~receivers:[ Mcc_core.Scenario.receiver () ]
          ()
      in
      (* An unprotected CBR burst at the full bottleneck rate: the queue
         stays solid during bursts, so even the small special packets
         drop and the keystore can only stay complete through FEC. *)
      ignore
        (Mcc_core.Scenario.add_onoff_cbr t ~rate_bps:500_000. ~on_period:2.
           ~off_period:3.);
      Mcc_core.Scenario.run t ~seconds:(duration 120.);
      let honest =
        Mcc_util.Meter.mean_kbps
          (Flid.receiver_meter (List.hd session.Mcc_core.Scenario.receivers))
          ~lo:20. ~hi:(duration 120.)
      in
      let misses =
        match Mcc_core.Scenario.agent t with
        | Some agent -> Mcc_sigma.Router_agent.total_guesses agent
        | None -> 0
      in
      let stats = Flid.sender_stats session.Mcc_core.Scenario.sender in
      Format.fprintf fmt "%-18s %8.1f %12d %10.2f@." label honest misses
        stats.Slot_sender.fec_expansion)
    [
      ("repetition-1", Mcc_sigma.Fec.Repetition 1);
      ("repetition-2", Mcc_sigma.Fec.Repetition 2);
      ("repetition-3", Mcc_sigma.Fec.Repetition 3);
      ("xor-parity", Mcc_sigma.Fec.Xor_parity);
    ];
  Format.fprintf fmt "@."

(* Ablation: SIGMA grace windows.  Too little unconditional forwarding
   after a keyed upgrade starves the receiver of the components it needs
   for the next keys; more grace than the paper's two slots buys
   nothing. *)
let ablation_grace () =
  Report.heading fmt
    "Ablation: SIGMA grace window after a keyed upgrade (paper: 2 slots)";
  Format.fprintf fmt "# grace_slots  honest_kbps@.";
  List.iter
    (fun grace ->
      let config =
        { Mcc_sigma.Router_agent.default_config with
          Mcc_sigma.Router_agent.upgrade_grace_slots = grace }
      in
      let t =
        Mcc_core.Scenario.create ~seed:53 ~agent_config:config
          ~bottleneck_rate_bps:Mcc_core.Defaults.fair_share_bps ()
      in
      let session =
        Mcc_core.Scenario.add_multicast t ~mode:Flid.Robust
          ~receivers:[ Mcc_core.Scenario.receiver () ]
          ()
      in
      Mcc_core.Scenario.run t ~seconds:(duration 120.);
      let kbps =
        Mcc_util.Meter.mean_kbps
          (Flid.receiver_meter (List.hd session.Mcc_core.Scenario.receivers))
          ~lo:30. ~hi:(duration 120.)
      in
      Format.fprintf fmt "%6.1f %14.1f@." grace kbps)
    [ 0.; 0.5; 1.; 2.; 3. ];
  Format.fprintf fmt "@."

(* Ablation: FLID-DS slot duration.  Shorter slots react faster (better
   backoff during a burst) but cost more key-distribution overhead; the
   paper picks 250 ms to match FLID-DL's 500 ms control granularity. *)
let ablation_slot () =
  Report.heading fmt
    "Ablation: FLID-DS slot duration (responsiveness vs overhead)";
  Format.fprintf fmt
    "# slot_s  before_kbps  during_burst_kbps  after_kbps  sigma_overhead%%@.";
  List.iter
    (fun slot ->
      let t =
        Mcc_core.Scenario.create ~seed:57 ~bottleneck_rate_bps:1_000_000. ()
      in
      let session =
        Mcc_core.Scenario.add_multicast ~slot t ~mode:Flid.Robust
          ~receivers:[ Mcc_core.Scenario.receiver () ]
          ()
      in
      ignore
        (Mcc_core.Scenario.add_onoff_cbr t ~at:45. ~until:75.
           ~rate_bps:800_000. ~on_period:30. ~off_period:1.);
      Mcc_core.Scenario.run t ~seconds:(duration 100.);
      let meter =
        Flid.receiver_meter (List.hd session.Mcc_core.Scenario.receivers)
      in
      let stats = Flid.sender_stats session.Mcc_core.Scenario.sender in
      let overhead =
        if stats.Slot_sender.data_bits = 0 then 0.
        else
          100.
          *. float_of_int
               (stats.Slot_sender.sigma_payload_bits + stats.Slot_sender.sigma_header_bits)
          /. float_of_int stats.Slot_sender.data_bits
      in
      Format.fprintf fmt "%6.3f %10.1f %14.1f %12.1f %12.3f@." slot
        (Mcc_util.Meter.mean_kbps meter ~lo:30. ~hi:45.)
        (Mcc_util.Meter.mean_kbps meter ~lo:50. ~hi:75.)
        (Mcc_util.Meter.mean_kbps meter ~lo:85. ~hi:(duration 100.))
        overhead)
    [ 0.125; 0.25; 0.5; 1.0 ];
  Format.fprintf fmt "@."

(* Ablation: XOR scheme vs Shamir threshold scheme in-band overhead
   (paper Section 3.1.2: threshold schemes cannot reuse components). *)
let ablation_threshold () =
  Report.heading fmt
    "Ablation: in-band key material, XOR (FLID-DS) vs Shamir threshold \
     (RLM-like)";
  let seconds = duration 30. in
  (* XOR scheme. *)
  let t = Mcc_core.Scenario.create ~seed:59 ~bottleneck_rate_bps:500_000. () in
  let session =
    Mcc_core.Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:[ Mcc_core.Scenario.receiver () ]
      ()
  in
  Mcc_core.Scenario.run t ~seconds;
  let stats = Flid.sender_stats session.Mcc_core.Scenario.sender in
  let xor_pct =
    100. *. float_of_int stats.Slot_sender.delta_bits
    /. float_of_int (max 1 stats.Slot_sender.data_bits)
  in
  (* Shamir threshold scheme. *)
  let module Rlm = Mcc_mcast.Rlm_like in
  let module Dumbbell = Mcc_core.Dumbbell in
  let sim = Mcc_engine.Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:500_000. () in
  let _agent =
    Mcc_sigma.Router_agent.attach db.Dumbbell.topo db.Dumbbell.right
  in
  let prng = Mcc_util.Prng.create 59 in
  let config =
    Rlm.make_config ~id:9 ~base_group:0x7F00
      ~layering:(Mcc_core.Defaults.layering ()) ~slot_duration:0.25
      ~mode:Flid.Robust ()
  in
  let src = Dumbbell.add_sender db in
  let sender =
    Rlm.sender_start db.Dumbbell.topo ~node:src
      ~prng:(Mcc_util.Prng.split prng) config
  in
  let host = Dumbbell.add_receiver db in
  let _receiver =
    Rlm.receiver_start db.Dumbbell.topo ~host ~prng:(Mcc_util.Prng.split prng)
      config
  in
  Dumbbell.finalize db;
  Mcc_engine.Sim.run_until sim seconds;
  let stats = Rlm.sender_stats sender in
  let shamir_pct =
    100.
    *. float_of_int stats.Slot_sender.delta_bits
    /. float_of_int (max 1 stats.Slot_sender.data_bits)
  in
  Format.fprintf fmt "# scheme             in-band overhead (%% of data bits)@.";
  Format.fprintf fmt "xor (FLID-DS)        %.3f@." xor_pct;
  Format.fprintf fmt "shamir (RLM-like)    %.3f@." shamir_pct;
  Format.fprintf fmt "ratio                %.1fx@.@." (shamir_pct /. xor_pct)

(* Protocol comparison: one session of each family — FLID-DS (single
   loss, XOR keys), replicated (tier switching), RLM-like ladder and
   WEBRC-style equation (threshold keys) — competing with one TCP flow
   on a shared bottleneck provisioned at 250 kbps per flow. *)
let protocols () =
  Report.heading fmt
    "Protocol comparison: FLID-DS / replicated / RLM ladder / WEBRC \
     equation / TCP sharing one bottleneck";
  let module Rep = Mcc_mcast.Replicated_proto in
  let module Rlm = Mcc_mcast.Rlm_like in
  let t =
    Mcc_core.Scenario.create ~seed:101 ~bottleneck_rate_bps:1_250_000. ()
  in
  let flid =
    Mcc_core.Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:[ Mcc_core.Scenario.receiver () ] ()
  in
  let rep =
    Mcc_core.Scenario.add_session (module Mcc_mcast.Replicated_proto) t
      ~mode:Flid.Robust ~receivers:[ Mcc_core.Scenario.receiver () ] ()
  in
  let ladder =
    Mcc_core.Scenario.add_session (module Mcc_mcast.Rlm_like) t
      ~mode:Flid.Robust ~receivers:[ Mcc_core.Scenario.receiver () ] ()
  in
  let webrc =
    Mcc_core.Scenario.add_session (module Mcc_mcast.Rlm_like)
      ~tune:(fun c -> { c with Rlm.policy = Rlm.Equation })
      t ~mode:Flid.Robust ~receivers:[ Mcc_core.Scenario.receiver () ] ()
  in
  let tcp = Mcc_core.Scenario.add_tcp t in
  let horizon = duration 200. in
  Mcc_core.Scenario.run t ~seconds:horizon;
  let mean m = Mcc_util.Meter.mean_kbps m ~lo:(horizon /. 4.) ~hi:horizon in
  let rows =
    [
      ("flid-ds", mean (Flid.receiver_meter (List.hd flid.Mcc_core.Scenario.receivers)));
      ("replicated", mean (Rep.receiver_meter (List.hd rep.Mcc_core.Scenario.receivers)));
      ("rlm-ladder", mean (Rlm.receiver_meter (List.hd ladder.Mcc_core.Scenario.receivers)));
      ("webrc-equation", mean (Rlm.receiver_meter (List.hd webrc.Mcc_core.Scenario.receivers)));
      ("tcp-reno", mean (Mcc_transport.Tcp.delivered_meter tcp));
    ]
  in
  Format.fprintf fmt "# protocol        kbps (fair share 250)@.";
  List.iter (fun (name, kbps) -> Format.fprintf fmt "%-16s %8.1f@." name kbps) rows;
  Format.fprintf fmt "Jain fairness index: %.3f@.@."
    (Mcc_util.Stats.jain_fairness (List.map snd rows))

(* Extension: collusion (paper Section 4.2).  Receiver B, behind a
   150 kbps access link, replays the keys its clean-path accomplice A
   reconstructs.  Plain SIGMA honours them and floods B's link with A's
   whole subscription; interface-specific keys make the replay
   worthless. *)
let collusion () =
  Report.heading fmt
    "Extension: key-passing collusion vs interface-specific keys \
     (paper Section 4.2)";
  Format.fprintf fmt
    "# interface_keys  accomplice_level  groups_open_to_colluder  \
     colluder_access_drops@.";
  List.iter
    (fun interface_keys ->
      let agent_config =
        { Mcc_sigma.Router_agent.default_config with
          Mcc_sigma.Router_agent.interface_keys }
      in
      let t =
        Mcc_core.Scenario.create ~seed:97 ~agent_config
          ~bottleneck_rate_bps:2_000_000. ()
      in
      let session =
        Mcc_core.Scenario.add_multicast t ~mode:Flid.Robust
          ~receivers:
            [
              Mcc_core.Scenario.receiver ();
              Mcc_core.Scenario.receiver ~access_rate_bps:150_000. ();
            ]
          ()
      in
      (match session.Mcc_core.Scenario.receivers with
      | [ a; b ] -> Slot_receiver.set_colluder b ~source:a
      | _ -> ());
      Mcc_core.Scenario.run t ~seconds:(duration 60.);
      let agent = Option.get (Mcc_core.Scenario.agent t) in
      let db = Mcc_core.Scenario.dumbbell t in
      let b_host =
        List.find
          (fun (n : Mcc_net.Node.t) ->
            n.Mcc_net.Node.kind = Mcc_net.Node.Host
            && List.exists
                 (fun (l : Mcc_net.Link.t) ->
                   Float.equal l.Mcc_net.Link.rate_bps 150_000.)
                 n.Mcc_net.Node.links)
          (Mcc_net.Topology.nodes db.Mcc_core.Dumbbell.topo)
      in
      let open_groups =
        List.length
          (List.filter
             (fun g ->
               Mcc_sigma.Router_agent.iface_active agent
                 ~group:(Flid.group_addr session.Mcc_core.Scenario.config g)
                 ~toward:b_host.Mcc_net.Node.id)
             (List.init Mcc_core.Defaults.groups (fun i -> i + 1)))
      in
      let drops =
        match
          Mcc_net.Multicast.router_of db.Mcc_core.Dumbbell.topo b_host
        with
        | _, Some link -> link.Mcc_net.Link.drops
        | _, None -> -1
      in
      let a_level =
        Flid.receiver_level (List.hd session.Mcc_core.Scenario.receivers)
      in
      Format.fprintf fmt "%-16b %10d %18d %20d@." interface_keys a_level
        open_groups drops)
    [ false; true ];
  Format.fprintf fmt "@."

(* Extension: ECN-driven DELTA (paper Section 3.1.2, "Congestion
   notification").  With marking enabled the edge router scrubs the
   component field of marked copies and the receiver treats marks as
   congestion: the session backs off before the queue overflows. *)
let ecn () =
  Report.heading fmt
    "Extension: ECN-driven congestion signalling (marks instead of drops)";
  Format.fprintf fmt "# variant     kbps  bottleneck_drops  marks@.";
  List.iter
    (fun (label, ecn) ->
      let t =
        Mcc_core.Scenario.create ~seed:63 ~ecn
          ~bottleneck_rate_bps:Mcc_core.Defaults.fair_share_bps ()
      in
      let session =
        Mcc_core.Scenario.add_multicast t ~mode:Flid.Robust
          ~receivers:[ Mcc_core.Scenario.receiver () ]
          ()
      in
      Mcc_core.Scenario.run t ~seconds:(duration 120.);
      let kbps =
        Mcc_util.Meter.mean_kbps
          (Flid.receiver_meter (List.hd session.Mcc_core.Scenario.receivers))
          ~lo:30. ~hi:(duration 120.)
      in
      let db = Mcc_core.Scenario.dumbbell t in
      Format.fprintf fmt "%-10s %8.1f %10d %12d@." label kbps
        db.Mcc_core.Dumbbell.forward.Mcc_net.Link.drops
        db.Mcc_core.Dumbbell.forward.Mcc_net.Link.marks)
    [ ("drop-tail", false); ("ecn", true) ];
  Format.fprintf fmt "@."

(* Extension: the oversubscribed-CC protocol — each receiver subscribes
   one layer past its sustainable rate and backs off on the EWMA of the
   ECN mark fraction.  Honest receivers only; the attack matrix covers
   the adversarial cells. *)
let oversub () =
  let module Oversub = Mcc_mcast.Oversub in
  Report.heading fmt
    "Extension: oversubscribed CC (EWMA of ECN mark fraction), 3 \
     receivers on an ECN dumbbell";
  let t =
    Mcc_core.Scenario.create ~seed:77 ~ecn:true ~sigma:true
      ~bottleneck_rate_bps:1_000_000. ()
  in
  let s =
    Mcc_core.Scenario.add_session (module Mcc_mcast.Oversub) t
      ~mode:Flid.Robust
      ~receivers:
        [
          Mcc_core.Scenario.receiver ();
          Mcc_core.Scenario.receiver ();
          Mcc_core.Scenario.receiver ();
        ]
      ()
  in
  let horizon = duration 120. in
  Mcc_core.Scenario.run t ~seconds:horizon;
  Format.fprintf fmt "# receiver  level     kbps  mark_ewma  decreases@.";
  List.iteri
    (fun i r ->
      Format.fprintf fmt "%-9d %6d %8.1f %10.3f %10d@." i
        (Oversub.receiver_level r)
        (Mcc_util.Meter.mean_kbps (Oversub.receiver_meter r)
           ~lo:(horizon /. 4.) ~hi:horizon)
        (Oversub.mark_ewma r)
        (Oversub.decrease_events r))
    s.Mcc_core.Scenario.receivers;
  Format.fprintf fmt "@."

(* Attack-evaluation matrix (reduced grid): two strategies against
   FLID, undefended vs DELTA+SIGMA, through the same batch runner as
   the figures — so the events/s gate also covers the adversary
   scenarios (bare attackers, SIGMA control traffic, lockouts). *)
let matrix () =
  Report.heading fmt
    "Attack matrix (reduced): inflate & grace-churn vs FLID, plain vs \
     DELTA+SIGMA";
  let entries =
    Mcc_attack.Matrix.entries
      ~attacks:
        [ Spec.Persistent_inflation; Spec.Grace_churn { period_slots = 2.5 } ]
      ~protocols:[ Spec.Flid_ds ]
      ~defences:[ Spec.Undefended; Spec.Delta_sigma ]
      ()
  in
  let entries =
    List.map (fun e -> { e with Runner.spec = q e.Runner.spec }) entries
  in
  let rows = Mcc_attack.Matrix.run ~jobs:!jobs ?sched:!sched entries in
  List.iter
    (fun (row : Runner.row) ->
      events_total := !events_total + row.Runner.profile.Profile.events)
    rows;
  Format.fprintf fmt "%s@." (Mcc_attack.Scorecard.to_string rows)

(* Self-profiler overhead: the matrix inflate cell — every Prof span
   site and Lineage hop site compiled in — with instrumentation left
   disabled, as an events/s figure the baseline gate tracks.  This is
   the zero-cost-when-off claim in the regression harness: a disabled
   span is one DLS read and an integer compare, so the figure must stay
   within noise of the same cell before the instrumentation existed
   (the acceptance bar is 2% plus measurement noise; the committed
   cross-machine gate is necessarily looser). *)
let profile_overhead () =
  Report.heading fmt
    "Profiler overhead: matrix inflate cell, span sites compiled in, \
     instrumentation off";
  Gc.compact ();
  match run_spec (Spec.Adversary Spec.default_adversary) with
  | E.Adversary r ->
      Report.row fmt "honest receiver"
        [
          ("before_kbps", r.E.honest_before_kbps);
          ("after_kbps", r.E.honest_after_kbps);
        ];
      Report.row fmt "attacker"
        [ ("kbps", r.E.attacker_kbps); ("gain", r.E.attacker_gain) ]
  | _ -> assert false

(* --- scheduler churn stress -------------------------------------------- *)

(* The workload the calendar queue exists for: a hot set of
   self-rescheduling timers (every FLID/RLM receiver, link serializer,
   and adversary in a big matrix cell is one) firing every few
   milliseconds, against a cold standing population of long-timeout
   timers (session expiries, keepalives) that never fire inside the
   measured window.  The heap pays O(log n) per event against the
   whole population, hot and cold alike; the wheel places the cold
   timers once in its upper levels and never touches them again, so
   its per-event cost stays O(1) on the hot set.  Delays come from a
   precomputed table (drawn once per process from a fixed Prng seed)
   so the figure measures the scheduler, not the RNG — both backends
   run the byte-identical schedule and events/s is the only thing that
   differs. *)
let churn_hot = 5_000
let churn_cold = 100_000
let churn_mean = 0.005
let churn_budget () = if !quick then 2_000_000 else 4_000_000

let churn backend () =
  Report.heading fmt
    (Printf.sprintf
       "Scheduler churn: %d hot timers + %d cold, %d events (%s backend)"
       churn_hot churn_cold (churn_budget ())
       (Scheduler.backend_name backend));
  (* Figures before this one leave a large, fragmented major heap;
     compacting first gives both backends the same memory layout
     whether the figure runs alone or after the whole suite. *)
  Gc.compact ();
  let sim = Sim.create ~sched:backend () in
  let prng = Mcc_util.Prng.create 1907 in
  let delays =
    Array.init 4096 (fun _ ->
        Mcc_util.Prng.float prng *. (2. *. churn_mean))
  in
  let cursor = ref 0 in
  let remaining = ref (churn_budget ()) in
  let rec fire () =
    if !remaining > 0 then begin
      decr remaining;
      cursor := (!cursor + 1) land 4095;
      Sim.post_after sim ~delay:delays.(!cursor) fire
    end
  in
  for _ = 1 to churn_hot do
    cursor := (!cursor + 1) land 4095;
    Sim.post_after sim ~delay:delays.(!cursor) fire
  done;
  (* Cold timers: timeouts up to ~67 simulated minutes, far beyond the
     horizon, so none fires — they only deepen the standing queue. *)
  for _ = 1 to churn_cold do
    Sim.post_after sim
      ~delay:(Mcc_util.Prng.float prng *. 4000.)
      (fun () -> ())
  done;
  let horizon =
    float_of_int (churn_budget ()) *. churn_mean /. float_of_int churn_hot
  in
  Sim.run_until sim horizon;
  Format.fprintf fmt "final sim time %.1fs, queue capacity %d@.@."
    (Sim.now sim) (Sim.queue_capacity sim)

let churn_heap = churn Scheduler.heap
let churn_wheel = churn Scheduler.wheel

(* --- Bechamel microbenchmarks ------------------------------------------ *)

let micro () =
  let open Bechamel in
  let prng = Mcc_util.Prng.create 99 in
  let delta_precompute =
    Test.make ~name:"delta/layered-precompute-N10" (Bechamel.Staged.stage @@ fun () ->
        ignore
          (Mcc_delta.Layered.sender_create ~prng ~width:16 ~groups:10
             ~upgrades:(Array.make 10 true)))
  in
  let delta_roundtrip =
    Test.make ~name:"delta/layered-slot-roundtrip" (Bechamel.Staged.stage @@ fun () ->
        let s =
          Mcc_delta.Layered.sender_create ~prng ~width:16 ~groups:10
            ~upgrades:(Array.make 10 false)
        in
        let r = Mcc_delta.Layered.receiver_create ~groups:10 in
        for g = 1 to 10 do
          for i = 0 to 9 do
            let c =
              Mcc_delta.Layered.next_component s ~group:g ~last:(i = 9)
            in
            Mcc_delta.Layered.on_packet r ~group:g ~component:c
              ~decrease:(Mcc_delta.Layered.decrease_field s ~group:g)
          done
        done;
        ignore
          (Mcc_delta.Layered.slot_end r ~level:10 ~congested:false
             ~lost:(fun _ -> false)
             ~upgrade_to:(fun _ -> false)))
  in
  let shamir =
    Test.make ~name:"delta/shamir-split-reconstruct-k8-n16" (Bechamel.Staged.stage @@ fun () ->
        let shares = Mcc_util.Shamir.split prng ~k:8 ~n:16 ~secret:123456 in
        ignore
          (Mcc_util.Shamir.reconstruct
             (Array.to_list (Array.sub shares 0 8))))
  in
  (* One micro per backend over the identical push/pop schedule; the
     queue is created outside the staged closure so steady-state capacity
     (not first-run growth) is what's measured. *)
  let sched_micro name backend =
    let q = Scheduler.instantiate backend () in
    Test.make ~name (Bechamel.Staged.stage @@ fun () ->
        for i = 0 to 999 do
          q.Scheduler.push ~time:(float_of_int (i * 7 mod 100)) i
        done;
        while not (q.Scheduler.is_empty ()) do
          ignore (q.Scheduler.pop ())
        done)
  in
  let sched_heap = sched_micro "engine/sched-heap-push-pop-1k" Scheduler.heap in
  let sched_wheel =
    sched_micro "engine/sched-wheel-push-pop-1k" Scheduler.wheel
  in
  let sim_second =
    Test.make ~name:"scenario/one-simulated-second" (Bechamel.Staged.stage @@ fun () ->
        let t =
          Mcc_core.Scenario.create ~seed:3 ~bottleneck_rate_bps:1_000_000. ()
        in
        ignore
          (Mcc_core.Scenario.add_multicast t ~mode:Flid.Robust
             ~receivers:[ Mcc_core.Scenario.receiver () ] ());
        Mcc_core.Scenario.run t ~seconds:1.0)
  in
  let tests =
    [ delta_precompute; delta_roundtrip; shamir; sched_heap; sched_wheel;
      sim_second ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                     ~predictors:[| Measure.run |])
        (Toolkit.Instance.monotonic_clock) raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Format.fprintf fmt "%-42s %12.1f ns/run@." name est
        | Some _ | None -> Format.fprintf fmt "%-42s (no estimate)@." name)
      results
  in
  Report.heading fmt "Microbenchmarks (Bechamel, monotonic clock)";
  List.iter benchmark tests

(* --- driver ------------------------------------------------------------ *)

let all_figs =
  [
    ("fig1", fig1);
    ("fig7", fig7);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig8c", fig8c);
    ("fig8d", fig8d);
    ("fig8e", fig8e);
    ("fig8f", fig8f);
    ("fig8g", fig8g);
    ("fig8h", fig8h);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("partial", partial);
    ("protocols", protocols);
    ("collusion", collusion);
    ("ecn", ecn);
    ("oversub", oversub);
    ("matrix", matrix);
    ("ablation-fec", ablation_fec);
    ("ablation-grace", ablation_grace);
    ("ablation-slot", ablation_slot);
    ("ablation-threshold", ablation_threshold);
    ("profile-overhead", profile_overhead);
    ("churn-heap", churn_heap);
    ("churn-wheel", churn_wheel);
    ("micro", micro);
  ]

(* --- events/s baseline gate -------------------------------------------- *)

module Json = Mcc_core.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save_baseline path rates =
  let oc = open_out path in
  output_string oc
    (Json.to_string (Json.Obj (List.map (fun (n, r) -> (n, Json.Float r)) rates)));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "baseline saved to %s (%d figures)@." path
    (List.length rates)

(* Compare this run's events/s against a saved baseline; any common
   figure more than [threshold] below its baseline is a regression and
   fails the run.  Figures present on only one side are reported but
   never fail — registries evolve. *)
let compare_baseline path rates =
  let baseline =
    match Json.of_string (read_file path) with
    | Ok (Json.Obj fields) ->
        List.filter_map
          (fun (n, v) ->
            Option.map (fun r -> (n, r)) (Json.to_float_opt v))
          fields
    | Ok _ ->
        Format.eprintf "%s: baseline is not a JSON object@." path;
        exit 2
    | Error e ->
        Format.eprintf "%s: cannot parse baseline: %s@." path e;
        exit 2
  in
  Format.fprintf fmt "@.baseline comparison against %s (threshold -%.0f%%):@."
    path (100. *. !threshold);
  Format.fprintf fmt "# figure          baseline ev/s   current ev/s   delta@.";
  let regressions = ref [] in
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name baseline with
      | None -> Format.fprintf fmt "%-16s %14s %14.0f   (new)@." name "-" cur
      | Some base ->
          let delta = if base > 0. then (cur -. base) /. base else 0. in
          let flag =
            if delta < -. !threshold then begin
              regressions := name :: !regressions;
              "  REGRESSION"
            end
            else ""
          in
          Format.fprintf fmt "%-16s %14.0f %14.0f %+6.1f%%%s@." name base cur
            (100. *. delta) flag)
    rates;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name rates) then
        Format.fprintf fmt "%-16s (in baseline only)@." name)
    baseline;
  if !regressions <> [] then begin
    Format.eprintf "events/s regression beyond %.0f%%: %s@."
      (100. *. !threshold)
      (String.concat ", " (List.rev !regressions));
    exit 1
  end

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--jobs" :: n :: rest ->
        jobs := max 1 (int_of_string n);
        parse rest
    | "--sched" :: name :: rest ->
        (match Scheduler.of_name name with
        | Ok b ->
            sched := Some b;
            (* Direct Scenario/Sim figures run on this domain and pick
               the backend up from the domain default; batch figures get
               it passed explicitly so worker domains follow suit. *)
            Scheduler.set_default b
        | Error e ->
            Format.eprintf "bench: %s@." e;
            exit 2);
        parse rest
    (* A bare --baseline (next token absent, a flag, or a figure name)
       gates against the committed repo baseline. *)
    | "--baseline" :: path :: rest
      when String.length path > 0
           && path.[0] <> '-'
           && not (List.mem_assoc path all_figs) ->
        baseline_path := Some path;
        parse rest
    | "--baseline" :: rest ->
        baseline_path := Some "BENCH_baseline.json";
        parse rest
    | "--save-baseline" :: path :: rest ->
        save_baseline_path := Some path;
        parse rest
    | "--threshold" :: f :: rest ->
        threshold := float_of_string f;
        parse rest
    | "--record" :: rest ->
        record := true;
        parse rest
    | name :: rest ->
        requested := name :: !requested;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    if !requested = [] then all_figs
    else
      List.filter (fun (name, _) -> List.mem name !requested) all_figs
  in
  if selected = [] then begin
    Format.fprintf fmt "unknown selection; available:@.";
    List.iter (fun (name, _) -> Format.fprintf fmt "  %s@." name) all_figs
  end
  else begin
    let rates = ref [] in
    List.iter
      (fun (name, f) ->
        Metrics.reset ();
        events_total := 0;
        let (), wall = Profile.with_wall_clock f in
        let events =
          !events_total + Metrics.counter_value (Metrics.counter "engine.events")
        in
        Metrics.reset ();
        if events > 0 then begin
          let rate = float_of_int events /. Float.max wall 1e-9 in
          rates := (name, rate) :: !rates;
          Format.fprintf fmt "[%s done in %.1fs, %d events, %.0f events/s]@."
            name wall events rate
        end
        else Format.fprintf fmt "[%s done in %.1fs]@." name wall)
      selected;
    let rates = List.rev !rates in
    (match
       ( List.assoc_opt "churn-heap" rates,
         List.assoc_opt "churn-wheel" rates )
     with
    | Some h, Some w when h > 0. ->
        Format.fprintf fmt "[churn wheel/heap speedup: %.2fx]@." (w /. h)
    | _ -> ());
    (match !save_baseline_path with
    | Some path -> save_baseline path rates
    | None -> ());
    (* --record appends this invocation to the run ledger so `mcc
       history`/`mcc diff` see the bench trajectory.  The figure names
       and configuration are the deterministic payload; the events/s
       figures are wall-derived and live in the wall suffix, like every
       other host-timing field. *)
    if !record then begin
      let dir = Mcc_obs.Ledger.default_dir () in
      let selection =
        match !requested with [] -> "all" | l -> String.concat "," (List.rev l)
      in
      let payload =
        Json.Obj
          [
            ( "config",
              Json.Obj
                [
                  ("command", Json.String "bench");
                  ("selection", Json.String selection);
                  ("quick", Json.Bool !quick);
                  ( "figures",
                    Json.List
                      (List.map (fun (n, _) -> Json.String n) rates) );
                ] );
          ]
      in
      let wall =
        [
          ("recorded_unix_s", Json.Float (Profile.now ()));
          ( "figures",
            Json.Obj (List.map (fun (n, r) -> (n, Json.Float r)) rates) );
        ]
      in
      match
        Mcc_obs.Ledger.append ~dir ~kind:"bench" ~label:selection ~payload
          ~wall ()
      with
      | Ok entry ->
          Format.fprintf fmt "[recorded as ledger entry #%d in %s]@."
            entry.Mcc_obs.Ledger.seq
            (Mcc_obs.Ledger.file ~dir)
      | Error msg -> Format.eprintf "bench: ledger: %s (continuing)@." msg
    end;
    match !baseline_path with
    | Some path -> compare_baseline path rates
    | None -> ()
  end
