type t = { groups : int; min_rate_bps : float; factor : float }

let make ~groups ~min_rate_bps ~factor =
  if groups < 1 then invalid_arg "Layering.make: groups < 1";
  if min_rate_bps <= 0. then invalid_arg "Layering.make: min_rate_bps <= 0";
  if factor <= 1. then invalid_arg "Layering.make: factor <= 1";
  { groups; min_rate_bps; factor }

let cumulative_rate t ~level =
  if level < 0 || level > t.groups then invalid_arg "Layering.cumulative_rate";
  if level = 0 then 0.
  else t.min_rate_bps *. (t.factor ** float_of_int (level - 1))

let layer_rate t ~group =
  if group < 1 || group > t.groups then invalid_arg "Layering.layer_rate";
  cumulative_rate t ~level:group -. cumulative_rate t ~level:(group - 1)

let fair_level t ~rate_bps =
  let rec climb level =
    if level >= t.groups then t.groups
    else if cumulative_rate t ~level:(level + 1) > rate_bps then level
    else climb (level + 1)
  in
  if rate_bps < t.min_rate_bps then 0 else climb 1

let top_rate t = cumulative_rate t ~level:t.groups

let[@hot] rec climb active_since ~level slot e =
  if e >= level then level
  else if active_since.(e) <= slot then climb active_since ~level slot (e + 1)
  else e

let[@hot] effective_level active_since ~level slot =
  if active_since.(0) <= slot then climb active_since ~level slot 1 else 0

let mask_bit mask g = mask land (1 lsl (g - 1)) <> 0

let upgrade_mask t ~period slot =
  let mask = ref 0 in
  for g = 2 to t.groups do
    if (slot + g) mod period g = 0 then mask := !mask lor (1 lsl (g - 1))
  done;
  !mask
