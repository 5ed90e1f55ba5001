module Key = Mcc_delta.Key
module Metrics = Mcc_obs.Metrics
module Json = Mcc_obs.Json

type config = {
  flid : Flid.config;
  alpha : float;
  target : float;
  md : float;
  ai_bps : float;
  max_exp : int;
}

let make_config ?(packet_size = 576) ?(width = Key.default_width)
    ?upgrade_period ?(processing_margin = 0.9) ?(alpha = 0.5) ?(target = 0.3)
    ?(md = 0.5) ?(ai_bps = 10_000.) ?(max_exp = 6) ~id ~base_group ~layering
    ~slot_duration ~mode () =
  if not (alpha > 0. && alpha <= 1.) then invalid_arg "Oversub.make_config: alpha";
  if not (target > 0. && target < 1.) then
    invalid_arg "Oversub.make_config: target";
  if not (md > 0. && md <= 1.) then invalid_arg "Oversub.make_config: md";
  if ai_bps <= 0. then invalid_arg "Oversub.make_config: ai_bps";
  if max_exp < 0 then invalid_arg "Oversub.make_config: max_exp";
  let flid =
    Flid.make_config ~packet_size ~width ?upgrade_period ~processing_margin ~id
      ~base_group ~layering ~slot_duration ~mode ()
  in
  { flid; alpha; target; md; ai_bps; max_exp }

let configure ~id ~base_group ~layering ~slot_duration ~mode =
  make_config ~id ~base_group ~layering ~slot_duration ~mode ()

let default_slot _ = Flid.default_slot Flid.Robust
let group_addr config g = Flid.group_addr config.flid g

(* The sender side is protocol-independent: slot-clocked layered groups
   with precomputed DELTA keys and SIGMA tuple distribution, identical
   to FLID-DS.  Oversub is a receiver-side control law over that wire
   format, so the sender is FLID's. *)

type sender = Flid.sender

let sender_start ?at topo ~node ~prng config =
  Flid.sender_start ?at topo ~node ~prng config.flid

let sender_stats = Flid.sender_stats
let sender_stop = Flid.sender_stop

(* ----------------------------------------------------------------- *)
(* Receiver law                                                      *)
(* ----------------------------------------------------------------- *)

type state = {
  c : config;
  mutable rate : float;  (** the CC rate variable, bps *)
  mutable ewma : float;  (** EWMA of the per-slot mark fraction *)
  mutable exp : int;  (** consecutive uncongested slots (probe exponent) *)
  mutable decreases : int;
}

type receiver = (state, Mcc_delta.Layered.receiver) Slot_receiver.t

(* The control law (per slot): EWMA of the slot's ECN mark fraction,
   with packet loss saturating the congestion signal.  Above the target,
   multiplicative decrease of the rate variable (proportional to the
   excess) and a probe reset; below, additive increase with an
   exponentially growing quantum.  Returns the level the rate variable
   asks for, before key/authorization constraints. *)
let control_update st (rec_ : Slot_receiver.slot_rec) ~effective ~any_lost =
  let c = st.c in
  let layering = c.flid.Flid.layering in
  let received = ref 0 and marked = ref 0 in
  for g = 1 to effective do
    let ls = rec_.Slot_receiver.lanes.(g - 1) in
    received := !received + ls.Slot_receiver.count;
    marked := !marked + ls.Slot_receiver.marked
  done;
  let fraction =
    if any_lost || !received = 0 then 1.0
    else float_of_int !marked /. float_of_int !received
  in
  st.ewma <- ((1. -. c.alpha) *. st.ewma) +. (c.alpha *. fraction);
  let congested = st.ewma > c.target in
  if congested then begin
    st.decreases <- st.decreases + 1;
    Metrics.tick "oversub.decreases";
    st.rate <-
      Float.max layering.Layering.min_rate_bps
        (st.rate *. (1. -. ((st.ewma -. c.target) *. c.md)));
    st.exp <- 0
  end
  else begin
    let quantum = c.ai_bps *. (2. ** float_of_int (min st.exp c.max_exp)) in
    st.exp <- st.exp + 1;
    st.rate <- Float.min (Layering.top_rate layering) (st.rate +. quantum)
  end;
  (!marked, max 1 (Layering.fair_level layering ~rate_bps:st.rate))

(* Desired level after the per-slot constraints: decreases may span
   several levels at once, increases move one level per slot and only
   when the slot's mask authorized an upgrade to level+1. *)
let constrain_desired st (rec_ : Slot_receiver.slot_rec) ~level ~effective
    ~desired =
  let layering = st.c.flid.Flid.layering in
  let desired =
    if desired > level then
      if
        effective = level
        && Layering.mask_bit rec_.Slot_receiver.mask (level + 1)
      then level + 1
      else level
    else desired
  in
  (* Bound probe overshoot to one pending level so a long wait for an
     upgrade authorization cannot bank a multi-level jump. *)
  let cap =
    Layering.cumulative_rate layering
      ~level:(min layering.Layering.groups (desired + 1))
  in
  st.rate <- Float.min st.rate cap;
  desired

(* Marked components were scrubbed by a trusted ECN edge, so the top
   keys cannot be reconstructed: marks signal congestion and force the
   decrease-key path even when the EWMA alone would not decrease — the
   DELTA synergy this protocol exists to exercise.  The key path never
   lands above the rate's level, and upgrades only when the rate asks
   for one. *)
let judge st rec_ ~level ~effective ~any_lost =
  let marked, rate_level = control_update st rec_ ~effective ~any_lost in
  if any_lost then Metrics.tick "oversub.lossy_slots";
  let signal = any_lost || marked > 0 in
  if signal then Metrics.tick "oversub.congested_slots";
  let desired =
    constrain_desired st rec_ ~level ~effective ~desired:rate_level
  in
  {
    Slot_receiver.signal;
    desired;
    may_upgrade = (not signal) && desired > level;
    ceiling = desired;
  }

(* Loss is missing packets only: a marked packet arrived, so it counts
   toward the mark fraction, not toward loss.  When the key chain forces
   the level below what the EWMA asked for, the rate variable follows
   the attainable level down. *)
let law =
  {
    Slot_receiver.name = "oversub";
    marks_lost = false;
    judge;
    shed =
      (fun st ~level ->
        st.rate <-
          Float.min st.rate
            (Layering.cumulative_rate st.c.flid.Flid.layering
               ~level:(max 1 level)));
    settle = (fun _ _ -> ());
    stop = ignore;
    attrs = (fun st -> [ ("ewma", Json.Float st.ewma) ]);
    gauges = [ ("mark_ewma", fun st -> st.ewma) ];
  }

let receiver_start ?at ?behavior topo ~host ~prng config =
  let state =
    {
      c = config;
      rate = config.flid.Flid.layering.Layering.min_rate_bps;
      ewma = 0.;
      exp = 0;
      decreases = 0;
    }
  in
  let flid = config.flid in
  Slot_receiver.start ?at ?behavior topo ~host ~prng ~mode:flid.Flid.mode
    ~processing_margin:flid.Flid.processing_margin (Flid.sender_session flid)
    (Flid.keys flid) law state

let receiver_meter = Slot_receiver.meter
let receiver_level = Slot_receiver.level
let congestion_events = Slot_receiver.congestion_events
let decrease_events r = (Slot_receiver.state r).decreases
let mark_ewma r = (Slot_receiver.state r).ewma
let receiver_leave = Slot_receiver.leave
