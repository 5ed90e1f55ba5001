(* A top-level recursion rather than a local closure: the edge router
   calls this on every marked copy it forwards. *)
let[@hot] rec scrubbed_component prng ~width original =
  let c = Key.nonce prng ~width in
  if c = original then scrubbed_component prng ~width original else c
