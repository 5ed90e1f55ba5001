(* Twin: all-float records (a float ref included) store floats flat, and
   applying a looked-up stored function is a full application. *)
type clock = { mutable now : float; mutable last : float }
let[@hot] stamp c t = c.last <- t +. 1.
let[@hot] stamp_ref r t = r := t +. 1.
let[@hot] lookup (tbl : (int, int -> unit) Hashtbl.t) k = Hashtbl.find tbl k
let[@hot] dispatch (tbl : (int, int -> unit) Hashtbl.t) k = Hashtbl.find tbl k k
