module Flid = Mcc_mcast.Flid
module Slot_receiver = Mcc_mcast.Slot_receiver
module Slot_sender = Mcc_mcast.Slot_sender
module Layering = Mcc_mcast.Layering
module Meter = Mcc_util.Meter
module Tcp = Mcc_transport.Tcp
module Overhead = Mcc_delta.Overhead
module Prng = Mcc_util.Prng

type series = (float * float) list

let smooth meter = Meter.smoothed_kbps meter ~window:5.0

(* --- Figures 1 / 7 ---------------------------------------------------- *)

type attack_result = {
  f1 : series;
  f2 : series;
  t1 : series;
  t2 : series;
  f1_before : float;
  f1_after : float;
  f2_after : float;
  t1_after : float;
  t2_after : float;
}

let run_attack (p : Spec.attack_params) =
  let { Spec.seed; duration; attack_at; mode } = p in
  let t = Scenario.create ~seed ~bottleneck_rate_bps:1_000_000. () in
  let f1 =
    Scenario.add_multicast t ~mode
      ~receivers:
        [ Scenario.receiver ~behavior:(Slot_receiver.Inflate_after attack_at) () ]
      ()
  in
  let f2 = Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] () in
  let t1 = Scenario.add_tcp t in
  let t2 = Scenario.add_tcp t in
  Scenario.run t ~seconds:duration;
  let m_f1 = Flid.receiver_meter (List.hd f1.Scenario.receivers) in
  let m_f2 = Flid.receiver_meter (List.hd f2.Scenario.receivers) in
  let m_t1 = Tcp.delivered_meter t1 in
  let m_t2 = Tcp.delivered_meter t2 in
  let before_lo = attack_at /. 2. in
  let settle = Float.min 10. (0.1 *. (duration -. attack_at)) in
  {
    f1 = smooth m_f1;
    f2 = smooth m_f2;
    t1 = smooth m_t1;
    t2 = smooth m_t2;
    f1_before = Meter.mean_kbps m_f1 ~lo:before_lo ~hi:attack_at;
    f1_after = Meter.mean_kbps m_f1 ~lo:(attack_at +. settle) ~hi:duration;
    f2_after = Meter.mean_kbps m_f2 ~lo:(attack_at +. settle) ~hi:duration;
    t1_after = Meter.mean_kbps m_t1 ~lo:(attack_at +. settle) ~hi:duration;
    t2_after = Meter.mean_kbps m_t2 ~lo:(attack_at +. settle) ~hi:duration;
  }

(* --- Figures 8a-8d ----------------------------------------------------- *)

type sweep_point = {
  sessions : int;
  individual_kbps : float list;
  average_kbps : float;
}

let run_sweep (p : Spec.sweep_params) =
  let { Spec.seed; duration; sessions; cross_traffic; mode } = p in
  let bottleneck =
    Defaults.fair_share_bps
    *. float_of_int (if cross_traffic then 2 * sessions else sessions)
  in
  let t = Scenario.create ~seed ~bottleneck_rate_bps:bottleneck () in
  let multicast =
    List.init sessions (fun _ ->
        Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] ())
  in
  if cross_traffic then begin
    for _ = 1 to sessions do
      ignore (Scenario.add_tcp t)
    done;
    ignore
      (Scenario.add_onoff_cbr t ~rate_bps:(0.1 *. bottleneck) ~on_period:5.
         ~off_period:5.)
  end;
  Scenario.run t ~seconds:duration;
  let rates =
    List.map
      (fun session ->
        let meter =
          Flid.receiver_meter (List.hd session.Scenario.receivers)
        in
        (* Skip the first quarter: start-up transient. *)
        Meter.mean_kbps meter ~lo:(duration /. 4.) ~hi:duration)
      multicast
  in
  { sessions; individual_kbps = rates; average_kbps = Mcc_util.Stats.mean rates }

(* --- Figure 8e --------------------------------------------------------- *)

type responsiveness_result = {
  multicast : series;
  burst_start : float;
  burst_stop : float;
  before_kbps : float;
  during_kbps : float;
  after_kbps : float;
}

let run_responsiveness (p : Spec.responsiveness_params) =
  let { Spec.seed; duration; burst_start; burst_stop; burst_rate_bps; mode } =
    p
  in
  let t = Scenario.create ~seed ~bottleneck_rate_bps:1_000_000. () in
  let session =
    Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] ()
  in
  ignore
    (Scenario.add_onoff_cbr t ~at:burst_start ~until:burst_stop
       ~rate_bps:burst_rate_bps ~on_period:(burst_stop -. burst_start)
       ~off_period:1.);
  Scenario.run t ~seconds:duration;
  let meter = Flid.receiver_meter (List.hd session.Scenario.receivers) in
  (* Settling margins scale with the burst window so abbreviated specs
     still measure inside it. *)
  let margin = Float.min 5. (0.25 *. (burst_stop -. burst_start)) in
  let tail = Float.min 10. (0.4 *. (duration -. burst_stop)) in
  {
    multicast = smooth meter;
    burst_start;
    burst_stop;
    before_kbps = Meter.mean_kbps meter ~lo:(burst_start *. 2. /. 3.) ~hi:burst_start;
    during_kbps = Meter.mean_kbps meter ~lo:(burst_start +. margin) ~hi:burst_stop;
    after_kbps = Meter.mean_kbps meter ~lo:(burst_stop +. tail) ~hi:duration;
  }

(* --- Figure 8f --------------------------------------------------------- *)

let run_rtt (p : Spec.rtt_params) =
  let { Spec.seed; duration; receivers; mode } = p in
  (* RTT = 2 * (access + bottleneck(5 ms) + sender access(10 ms)); the
     receiver access delay spreads RTTs over [30 ms, 220 ms]. *)
  let bottleneck_delay_s = 0.005 in
  let rtt_min = 0.030 and rtt_max = 0.220 in
  let specs =
    List.init receivers (fun i ->
        let frac =
          if receivers = 1 then 0.
          else float_of_int i /. float_of_int (receivers - 1)
        in
        let rtt = rtt_min +. (frac *. (rtt_max -. rtt_min)) in
        let access = (rtt /. 2.) -. bottleneck_delay_s -. Defaults.access_delay_s in
        (rtt, Scenario.receiver ~access_delay_s:(Float.max 0.0001 access) ()))
  in
  let t =
    Scenario.create ~seed ~bottleneck_delay_s
      ~bottleneck_rate_bps:Defaults.fair_share_bps ()
  in
  let session =
    Scenario.add_multicast t ~mode ~receivers:(List.map snd specs) ()
  in
  Scenario.run t ~seconds:duration;
  List.map2
    (fun (rtt, _) receiver ->
      let meter = Flid.receiver_meter receiver in
      (rtt *. 1000., Meter.mean_kbps meter ~lo:(duration /. 4.) ~hi:duration))
    specs session.Scenario.receivers

(* --- Figures 8g / 8h --------------------------------------------------- *)

let run_convergence (p : Spec.convergence_params) =
  let { Spec.seed; duration; join_times; mode } = p in
  let t =
    Scenario.create ~seed ~bottleneck_rate_bps:Defaults.fair_share_bps ()
  in
  let session =
    Scenario.add_multicast t ~mode
      ~receivers:(List.map (fun at -> Scenario.receiver ~at ()) join_times)
      ()
  in
  Scenario.run t ~seconds:duration;
  List.map
    (fun receiver ->
      Meter.smoothed_kbps (Flid.receiver_meter receiver) ~window:3.0)
    session.Scenario.receivers

(* --- Incremental deployment (paper Section 3.2.3) ---------------------- *)

type partial_result = {
  protected_attacker_kbps : float;
  unprotected_attacker_kbps : float;
  honest_kbps : float;
}

let run_partial (p : Spec.partial_params) =
  let ({ Spec.seed; duration; attack_at } : Spec.partial_params) = p in
  let module Sim = Mcc_engine.Sim in
  let module Topology = Mcc_net.Topology in
  let module Node = Mcc_net.Node in
  let module Router_agent = Mcc_sigma.Router_agent in
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let prng = Prng.create seed in
  (* Left router, bottleneck, core fan-out to two edge routers: one runs
     SIGMA, the other is a legacy IGMP router. *)
  let left = Topology.add_node topo Node.Core_router in
  let core = Topology.add_node topo Node.Core_router in
  let edge_sigma = Topology.add_node topo Node.Edge_router in
  let edge_legacy = Topology.add_node topo Node.Edge_router in
  let bottleneck_rate = 750_000. (* 3 sessions x 250 kbps fair share *) in
  let rtt = Defaults.path_rtt_s ~bottleneck_delay_s:0.02 ~access_delay_s:0.01 in
  let buffer = Defaults.buffer_bytes ~bottleneck_rate_bps:bottleneck_rate ~rtt_s:rtt in
  let connect ?(rate = Defaults.access_rate_bps) ?(delay = 0.01) a b =
    ignore
      (Topology.connect topo a b ~rate_bps:rate ~delay_s:delay
         ~buffer_bytes:(Defaults.buffer_bytes ~bottleneck_rate_bps:rate ~rtt_s:rtt)
         ())
  in
  ignore
    (Topology.connect topo left core ~rate_bps:bottleneck_rate ~delay_s:0.02
       ~buffer_bytes:buffer ());
  connect core edge_sigma ~delay:0.005;
  connect core edge_legacy ~delay:0.005;
  let agent = Router_agent.attach topo edge_sigma in
  ignore agent;
  let host_behind edge =
    let h = Topology.add_node topo Node.Host in
    connect h edge;
    h
  in
  let make_session ~id ~edge ~receiver_mode ~behavior =
    let sender_host = Topology.add_node topo Node.Host in
    connect sender_host left;
    let layering = Defaults.layering () in
    let config =
      Flid.make_config ~id ~base_group:(0x7000 + (id * 32)) ~layering
        ~slot_duration:Defaults.flid_ds_slot ~mode:Flid.Robust ()
    in
    let _sender =
      Flid.sender_start topo ~node:sender_host ~prng:(Prng.split prng) config
    in
    (* A receiver behind a legacy router falls back to IGMP: model it as
       a Plain-mode receiver of the same (Robust) session, exactly the
       paper's incremental-deployment story. *)
    let receiver_config = { config with Flid.mode = receiver_mode } in
    let host = host_behind edge in
    Flid.receiver_start ~behavior topo ~host ~prng:(Prng.split prng)
      receiver_config
  in
  let protected_attacker =
    make_session ~id:1 ~edge:edge_sigma ~receiver_mode:Flid.Robust
      ~behavior:(Slot_receiver.Inflate_after attack_at)
  in
  let unprotected_attacker =
    make_session ~id:2 ~edge:edge_legacy ~receiver_mode:Flid.Plain
      ~behavior:(Slot_receiver.Inflate_after attack_at)
  in
  let honest =
    make_session ~id:3 ~edge:edge_sigma ~receiver_mode:Flid.Robust
      ~behavior:Slot_receiver.Well_behaved
  in
  Topology.compute_routes topo;
  Sim.run_until sim duration;
  let settle = Float.min 10. (0.25 *. (duration -. attack_at)) in
  let after r =
    Meter.mean_kbps (Flid.receiver_meter r) ~lo:(attack_at +. settle) ~hi:duration
  in
  {
    protected_attacker_kbps = after protected_attacker;
    unprotected_attacker_kbps = after unprotected_attacker;
    honest_kbps = after honest;
  }

(* --- Figures 9a / 9b --------------------------------------------------- *)

type overhead_point = {
  x : float;
  delta_analytic : float;
  sigma_analytic : float;
  delta_measured : float;
  sigma_measured : float;
}

(* The paper's overhead experiment: cumulative rate R = 4 Mbps, minimal
   group 100 Kbps, 500-byte (s = 4000 bits) packets, 16-bit keys, 8-bit
   slot numbers, FEC overcoming 50% loss. *)
let run_overhead (p : Spec.overhead_params) =
  let { Spec.seed; duration; groups; slot; axis } = p in
  let r = 100_000. and cumulative = 4_000_000. in
  let factor =
    if groups = 1 then 2.
    else (cumulative /. r) ** (1. /. float_of_int (groups - 1))
  in
  let layering = Layering.make ~groups ~min_rate_bps:r ~factor in
  let t =
    Scenario.create ~seed ~bottleneck_rate_bps:(2. *. cumulative) ()
  in
  (* The overhead analysis uses 500-byte (s = 4000 bits) data packets. *)
  let packet_size = 500 in
  let session =
    Scenario.add_multicast t ~mode:Flid.Robust ~slot ~layering
      ~tune:(fun c -> { c with Flid.packet_size })
      ~receivers:[ Scenario.receiver () ]
      ()
  in
  Scenario.run t ~seconds:duration;
  let stats = Flid.sender_stats session.Scenario.sender in
  let slots = max 1 stats.Slot_sender.slots in
  let upgrade_freq =
    Array.init (max 0 (groups - 1)) (fun i ->
        float_of_int stats.Slot_sender.authorizations.(i + 1) /. float_of_int slots)
  in
  let params =
    {
      Overhead.groups;
      min_rate_bps = r;
      rate_factor = factor;
      slot;
      data_bits = packet_size * 8;
      key_bits = 16;
      slot_number_bits = 8;
      fec_expansion = stats.Slot_sender.fec_expansion;
      header_bits =
        (if slots = 0 then 0 else stats.Slot_sender.sigma_header_bits / slots);
      upgrade_freq;
    }
  in
  let measured_delta =
    if stats.Slot_sender.data_bits = 0 then 0.
    else float_of_int stats.Slot_sender.delta_bits /. float_of_int stats.Slot_sender.data_bits
  in
  let measured_sigma =
    if stats.Slot_sender.data_bits = 0 then 0.
    else
      float_of_int (stats.Slot_sender.sigma_payload_bits + stats.Slot_sender.sigma_header_bits)
      /. float_of_int stats.Slot_sender.data_bits
  in
  {
    x = (match axis with Spec.Groups -> float_of_int groups | Spec.Slot -> slot);
    delta_analytic = 100. *. Overhead.delta_overhead params;
    sigma_analytic = 100. *. Overhead.sigma_overhead params;
    delta_measured = 100. *. measured_delta;
    sigma_measured = 100. *. measured_sigma;
  }

(* --- Adversary cells (defence-evaluation matrix) ------------------------ *)

type adversary_result = {
  honest_before_kbps : float;  (** honest receiver before the attack *)
  honest_after_kbps : float;  (** honest receiver once the attack runs *)
  honest_loss_pct : float;  (** 100 * (1 - after / before), clamped at 0 *)
  attacker_kbps : float;  (** adversary goodput during the attack *)
  attacker_gain : float;  (** attacker_kbps / fair share *)
  containment_s : float option;
      (** seconds from attack start until the adversary's goodput drops
          to (and stays within) 1.5 fair shares; None = never contained *)
  tcp_kbps : float;  (** the competing TCP flow during the attack *)
  keys_rejected : int;  (** edge-router stats; 0 without an agent *)
  lockouts : int;
  grace_admissions : int;
}

(* The cell runner lives in Mcc_attack (it needs Scenario *and* the
   strategy library), which depends on this library; the dispatch below
   reaches it through this hook, registered when Mcc_attack.Matrix is
   linked. *)
let adversary_impl : (Spec.adversary_params -> adversary_result) option Atomic.t =
  Atomic.make None

let set_adversary_impl f = Atomic.set adversary_impl (Some f)

let run_adversary p =
  match Atomic.get adversary_impl with
  | Some f -> f p
  | None ->
      failwith
        "Spec.Adversary requires the attack subsystem: link the mcc_attack \
         library (module Mcc_attack.Matrix) into the executable"

(* --- Declarative workloads --------------------------------------------- *)

type workload_result = {
  w_nodes : int;  (** nodes in the generated topology *)
  w_links : int;
  w_receivers : int;  (** receiver instances started (churn included) *)
  w_mean_goodput_kbps : float;
      (** mean over receivers of each receiver's goodput over its own
          active window (post-warmup) *)
  w_min_goodput_kbps : float;
  w_max_goodput_kbps : float;
  w_cross_kbps : float;  (** background traffic delivered, all flows *)
  w_attacker_kbps : float;  (** 0 without an attack *)
  w_drops : int;  (** queue drops summed over every link *)
  w_marks : int;  (** ECN marks summed over every link *)
  w_keys_rejected : int;  (** edge-agent stats; 0 without SIGMA *)
  w_lockouts : int;
}

(* Like the adversary hook: the workload builder lives in Mcc_workload
   (it needs the topology generators and every protocol), which depends
   on this library; dispatch reaches it through this hook, registered
   when Mcc_workload.Build is linked. *)
let workload_impl : (Spec.workload_params -> workload_result) option Atomic.t =
  Atomic.make None

let set_workload_impl f = Atomic.set workload_impl (Some f)

let run_workload p =
  match Atomic.get workload_impl with
  | Some f -> f p
  | None ->
      failwith
        "Spec.Workload requires the workload subsystem: link the mcc_workload \
         library (module Mcc_workload.Build) into the executable"

(* --- Spec dispatch ------------------------------------------------------ *)

type result =
  | Attack of attack_result
  | Sweep_point of sweep_point
  | Responsiveness of responsiveness_result
  | Rtt of (float * float) list
  | Convergence of series list
  | Overhead of overhead_point
  | Partial of partial_result
  | Adversary of adversary_result
  | Workload of workload_result

let run = function
  | Spec.Attack p -> Attack (run_attack p)
  | Spec.Sweep p -> Sweep_point (run_sweep p)
  | Spec.Responsiveness p -> Responsiveness (run_responsiveness p)
  | Spec.Rtt p -> Rtt (run_rtt p)
  | Spec.Convergence p -> Convergence (run_convergence p)
  | Spec.Overhead p -> Overhead (run_overhead p)
  | Spec.Partial p -> Partial (run_partial p)
  | Spec.Adversary p -> Adversary (run_adversary p)
  | Spec.Workload p -> Workload (run_workload p)
