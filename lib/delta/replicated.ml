module Prng = Mcc_util.Prng

type keys = {
  top : Key.t array;
  decrease : Key.t array;
  increase : Key.t option array;
}

let valid_keys keys ~group =
  let g = group in
  let n = Array.length keys.top in
  if g < 1 || g > n then invalid_arg "Replicated.valid_keys";
  let base = [ keys.top.(g - 1) ] in
  let base =
    if g <= Array.length keys.decrease then keys.decrease.(g - 1) :: base
    else base
  in
  match keys.increase.(g - 1) with Some i -> i :: base | None -> base

type sender = {
  width : int;
  prng : Prng.t;
  keys : keys;
  acc : Key.t array;
  closed : bool array;
}

let sender_create ~prng ~width ~groups ~upgrades =
  if groups < 1 then invalid_arg "Replicated.sender_create: groups < 1";
  if Array.length upgrades <> groups then
    invalid_arg "Replicated.sender_create: upgrades length";
  let c = Array.init groups (fun _ -> Key.nonce prng ~width) in
  let top = Array.copy c in
  let decrease =
    Array.init (max 0 (groups - 1)) (fun _ -> Key.nonce prng ~width)
  in
  let increase =
    Array.init groups (fun i ->
        if i >= 1 && upgrades.(i) then Some top.(i - 1) else None)
  in
  {
    width;
    prng;
    keys = { top; decrease; increase };
    acc = Array.copy c;
    closed = Array.make groups false;
  }

let sender_keys s = s.keys

let next_component s ~group ~last =
  let n = Array.length s.keys.top in
  if group < 1 || group > n then invalid_arg "Replicated.next_component: group";
  if s.closed.(group - 1) then
    invalid_arg "Replicated.next_component: slot already closed for group";
  if last then begin
    s.closed.(group - 1) <- true;
    s.acc.(group - 1)
  end
  else begin
    let c = Key.nonce s.prng ~width:s.width in
    s.acc.(group - 1) <- Key.xor s.acc.(group - 1) c;
    c
  end

let decrease_field s ~group =
  let n = Array.length s.keys.top in
  if group < 1 || group > n then invalid_arg "Replicated.decrease_field: group";
  if group = 1 then Key.none else s.keys.decrease.(group - 2)

type receiver = {
  xors : Key.t array;
  dfields : Key.t array;  (* [Key.none] until a decrease field arrives *)
}

let receiver_create ~groups =
  if groups < 1 then invalid_arg "Replicated.receiver_create";
  { xors = Array.make groups 0; dfields = Array.make groups Key.none }

let[@hot] on_packet r ~group ~component ~decrease =
  let n = Array.length r.xors in
  if group < 1 || group > n then invalid_arg "Replicated.on_packet: group";
  r.xors.(group - 1) <- Key.xor r.xors.(group - 1) component;
  if decrease <> Key.none then r.dfields.(group - 1) <- decrease

type outcome = { next_group : int; key : Key.t option }

let slot_end r ~group ~congested ~upgrade_to =
  let n = Array.length r.xors in
  let g = group in
  if g < 1 || g > n then invalid_arg "Replicated.slot_end: group";
  if congested then begin
    if g = 1 then { next_group = 0; key = None }
    else
      let d = r.dfields.(g - 1) in
      if d = Key.none then { next_group = 0; key = None }
      else { next_group = g - 1; key = Some d }
  end
  else begin
    let top = r.xors.(g - 1) in
    if g < n && upgrade_to (g + 1) then { next_group = g + 1; key = Some top }
    else { next_group = g; key = Some top }
  end
