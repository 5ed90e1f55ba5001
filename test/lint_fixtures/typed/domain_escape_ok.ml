(* Twin: atomics may cross domains, and a DLS initialiser that creates
   (rather than captures) mutable state is the sanctioned pattern. *)
let ok () =
  let counter = Atomic.make 0 in
  let d = Domain.spawn (fun () -> Atomic.incr counter) in
  Domain.join d;
  Atomic.get counter

let key = Domain.DLS.new_key (fun () -> ref 0)

(* A captured float typed [Float.t] is not this unit's mutable [t]. *)
type t = { mutable hits : int }

let slice = 0.5

let ok_float () =
  let d = Domain.spawn (fun () -> Float.min slice 1.) in
  Domain.join d
