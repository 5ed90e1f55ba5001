type t = int

let default_width = 16
let none = -1

let nonce prng ~width =
  if width <= 0 || width > 62 then invalid_arg "Key.nonce";
  Mcc_util.Prng.bits prng width

let xor = ( lxor )
let xor_list = List.fold_left ( lxor ) 0
let field_bytes ~width = (width + 7) / 8

let fields_bytes ~width ~decrease =
  if decrease then 2 * field_bytes ~width else field_bytes ~width
