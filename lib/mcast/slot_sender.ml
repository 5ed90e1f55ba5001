module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Topology = Mcc_net.Topology
module Key = Mcc_delta.Key
module Special = Mcc_sigma.Special

type mode = Plain | Robust

type session = {
  id : int;
  base_group : int;
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;
  upgrade_period : int -> int;
}

type draft = {
  mutable group : int;
  mutable slot : int;
  mutable seq : int;
  mutable last : bool;
  mutable repair : bool;
  mutable mask : int;
  mutable component : Key.t;
  mutable decrease : Key.t;
  mutable delta_bytes : int;
}

type 'k scheme = {
  width : int;
  fec : Mcc_sigma.Fec.scheme;
  draw : (Mcc_util.Prng.t -> mask:int -> counts:int array -> 'k) option;
  keys : 'k -> mask:int -> group:int -> Key.t list;
  payload : 'k option -> draft -> Mcc_net.Payload.t;
}

module type Xor = sig
  type sender
  type keys

  val sender_create :
    prng:Mcc_util.Prng.t -> width:int -> groups:int -> upgrades:bool array ->
    sender

  val sender_keys : sender -> keys
  val valid_keys : keys -> group:int -> Key.t list
  val decrease_field : sender -> group:int -> Key.t
  val next_component : sender -> group:int -> last:bool -> Key.t
end

let xor (type k) (module D : Xor with type sender = k) mode ~width ~fec
    ~payload : k scheme =
  let draw prng ~mask ~counts =
    let n = Array.length counts in
    D.sender_create ~prng ~width ~groups:n
      ~upgrades:(Array.init n (fun i -> i >= 1 && Layering.mask_bit mask (i + 1)))
  in
  {
    width;
    fec;
    draw = (match mode with Plain -> None | Robust -> Some draw);
    keys = (fun st ~mask:_ ~group -> D.valid_keys (D.sender_keys st) ~group);
    payload =
      (fun st d ->
        (match st with
        | Some st ->
            let decrease = D.decrease_field st ~group:d.group in
            let component = D.next_component st ~group:d.group ~last:d.last in
            d.component <- component;
            d.decrease <- decrease;
            if component <> Key.none then
              d.delta_bytes <-
                Key.fields_bytes ~width ~decrease:(decrease <> Key.none)
        | None -> ());
        payload d);
  }

type stats = {
  mutable slots : int;
  mutable data_bits : int;
  mutable delta_bits : int;
  mutable sigma_payload_bits : int;
  mutable sigma_header_bits : int;
  mutable sigma_packets : int;
  mutable authorizations : int array;
  mutable fec_expansion : float;
}

type 'k t = {
  session : session;
  scheme : 'k scheme;
  topo : Topology.t;
  node : Node.t;
  prng : Mcc_util.Prng.t;
  quota : float array;  (* per group: packets per slot at its rate *)
  repair_fraction : float;
  credits : float array;  (* fractional packets carried across slots *)
  mutable next_slot : int;
  mutable retained : (int * 'k) list;  (* (guarded slot, key material) *)
  s_stats : stats;
  mutable tick : Sim.handle option;
  mutable stopped : bool;
  (* Emission state of the slot in progress.  The last packet of slot k
     is due strictly before tick k+1 (see [tick]), so one slot's state
     per sender is enough; its slot and mask live in [draft]. *)
  mutable cur_keys : 'k option;
  draft : draft;
  originals : int array;  (* per group: original packets this slot *)
  count : int array;  (* per group: packets this slot, repairs included *)
  next_seq : int array;  (* per group: seq of the next packet due *)
  emit : (unit -> unit) array;  (* per group, built once *)
}

let stats s = s.s_stats

let stop s =
  s.stopped <- true;
  Option.iter Sim.cancel s.tick

let keys_for_slot s ~slot = List.assoc_opt slot s.retained
let group_addr session g = session.base_group + g - 1

(* Not [@hot]: it builds the packet, which originating one must do. *)
let emit_packet s payload =
  if not s.stopped then begin
    let session = s.session and d = s.draft in
    let pkt =
      Packet.make ~src:s.node.Node.id
        ~dst:(Packet.Multicast (group_addr session d.group))
        ~size:(session.packet_size + d.delta_bytes) payload
    in
    pkt.Packet.delta_component <- d.component;
    pkt.Packet.delta_decrease <- d.decrease;
    s.s_stats.data_bits <- s.s_stats.data_bits + (session.packet_size * 8);
    s.s_stats.delta_bits <- s.s_stats.delta_bits + (d.delta_bytes * 8);
    Mcc_obs.Lineage.set_origin pkt.Packet.lineage ~session:session.id
      ~level:d.group
      ~time:(Sim.now (Topology.sim s.topo));
    Node.originate s.node pkt
  end

(* Group [g]'s emitter: the tick posts it once per packet of the slot,
   and each firing emits the group's next packet.  Its DELTA fields are
   drawn at the emission instant, whether or not the sender has been
   stopped since, so the key PRNG advances exactly as the slot planned. *)
let[@hot] emit_next s g =
  let seq = s.next_seq.(g - 1) and count = s.count.(g - 1) in
  if seq >= count then invalid_arg "Slot_sender: emission past the slot";
  s.next_seq.(g - 1) <- seq + 1;
  let d = s.draft in
  d.group <- g;
  d.seq <- seq;
  d.last <- seq = count - 1;
  d.repair <- seq >= s.originals.(g - 1);
  d.component <- Key.none;
  d.decrease <- Key.none;
  d.delta_bytes <- 0;
  emit_packet s (s.scheme.payload s.cur_keys d)

(* Ship the key material guarding [guarded] to the SIGMA edge routers. *)
let distribute s ~mask ~guarded k =
  let session = s.session and scheme = s.scheme and stats = s.s_stats in
  let tuples =
    List.init (Array.length s.count) (fun i ->
        Mcc_sigma.Tuple.make ~group:(group_addr session (i + 1)) ~slot:guarded
          ~keys:(scheme.keys k ~mask ~group:(i + 1)) ~minimal:(i = 0))
  in
  let st =
    Special.distribute ~scheme:scheme.fec s.topo ~sender:s.node
      ~session:session.id ~via_group:(group_addr session 1)
      ~width:scheme.width ~slot:guarded ~slot_duration:session.slot_duration
      ~tuples ()
  in
  stats.sigma_payload_bits <- stats.sigma_payload_bits + st.Special.payload_bits;
  stats.sigma_header_bits <- stats.sigma_header_bits + st.Special.header_bits;
  stats.sigma_packets <- stats.sigma_packets + st.Special.packets;
  stats.fec_expansion <- st.Special.expansion

(* One tick per slot: decide the slot's upgrade mask and packet counts,
   draw the DELTA key material guarding slot+2 (sized by those counts,
   which a threshold scheme needs), distribute its tuples through SIGMA,
   and schedule every data packet of the slot through the groups'
   emitters.  The last packet of group g leaves at
   [phase + (count-1) * spacing = (count - 1 + g/(n+1)) * spacing],
   strictly inside the slot, so every emission of slot k precedes tick
   k+1 and the tick may overwrite the sender's slot state. *)
let tick_body s =
  let session = s.session and stats = s.s_stats in
  let sim = Topology.sim s.topo in
  let tick_now = Sim.now sim in
  let n = Array.length s.count in
  let slot = s.next_slot in
  s.next_slot <- slot + 1;
  let mask =
    Layering.upgrade_mask session.layering ~period:session.upgrade_period slot
  in
  stats.slots <- stats.slots + 1;
  for g = 2 to n do
    if Layering.mask_bit mask g then
      stats.authorizations.(g - 1) <- stats.authorizations.(g - 1) + 1
  done;
  for i = 0 to n - 1 do
    s.credits.(i) <- s.credits.(i) +. s.quota.(i);
    let originals = max 1 (int_of_float s.credits.(i)) in
    s.credits.(i) <- s.credits.(i) -. float_of_int originals;
    (* Repair packets join the slot and carry DELTA material exactly
       like originals (paper Section 3.1.2, "Reliability"). *)
    s.originals.(i) <- originals;
    s.count.(i) <-
      originals + int_of_float (ceil (s.repair_fraction *. float_of_int originals));
    s.next_seq.(i) <- 0
  done;
  s.cur_keys <-
    (match s.scheme.draw with
    | None -> None
    | Some draw ->
        let k = draw s.prng ~mask ~counts:s.count in
        let guarded = slot + 2 in
        s.retained <- (guarded, k) :: List.filteri (fun i _ -> i < 3) s.retained;
        distribute s ~mask ~guarded k;
        Some k);
  s.draft.slot <- slot;
  s.draft.mask <- mask;
  for g = 1 to n do
    let count = s.count.(g - 1) in
    let spacing = session.slot_duration /. float_of_int count in
    (* De-phase groups so slot starts are not synchronized bursts. *)
    let phase = float_of_int g /. float_of_int (n + 1) *. spacing in
    for i = 0 to count - 1 do
      Sim.post sim
        ~at:(tick_now +. phase +. (float_of_int i *. spacing))
        s.emit.(g - 1)
    done
  done

let tick s () =
  let prof = Mcc_obs.Prof.span "flid" in
  tick_body s;
  Mcc_obs.Prof.finish prof

let start ?(at = 0.) topo ~node ~prng ~rate ~repair_fraction session scheme =
  let n = session.layering.Layering.groups in
  for g = 1 to n do
    Topology.register_group topo ~group:(group_addr session g) ~source:node
  done;
  let bits = float_of_int (session.packet_size * 8) in
  let s =
    {
      session; scheme; topo; node; prng; repair_fraction;
      quota =
        Array.init n (fun i -> rate (i + 1) *. session.slot_duration /. bits);
      credits = Array.make n 0.;
      next_slot = 0;
      retained = [];
      s_stats =
        { slots = 0; data_bits = 0; delta_bits = 0; sigma_payload_bits = 0;
          sigma_header_bits = 0; sigma_packets = 0;
          authorizations = Array.make n 0; fec_expansion = 1. };
      tick = None;
      stopped = false;
      cur_keys = None;
      draft =
        { group = 1; slot = 0; seq = 0; last = false; repair = false; mask = 0;
          component = Key.none; decrease = Key.none; delta_bytes = 0 };
      originals = Array.make n 0;
      count = Array.make n 0;
      next_seq = Array.make n 0;
      emit = Array.make n ignore;
    }
  in
  Array.iteri (fun i _ -> s.emit.(i) <- (fun () -> emit_next s (i + 1))) s.emit;
  s.tick <-
    Some
      (Sim.every (Topology.sim topo) ~start:at ~period:session.slot_duration
         (tick s));
  s
