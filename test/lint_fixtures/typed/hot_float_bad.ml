(* Fixture: a computed float stored into a record that is not all-float. *)
type meter = { mutable total : int; mutable last : float }
let[@hot] stamp m t = m.last <- t +. 1.
let add3 a b c = a + b + c
let[@hot] curried x = add3 x 1
