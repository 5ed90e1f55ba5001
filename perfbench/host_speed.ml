module Profile = Mcc_obs.Profile

(* Close to the kernel's time on the 2-core VM the benchmark was written
   on, so that scaled times read close to host seconds there. *)
let nominal_s = 0.01

type cell = { n : int; x : float; next : cell option }

let kernel () =
  let kept = ref None in
  for round = 1 to 200 do
    let cells =
      List.init 2000 (fun i -> { n = i; x = float_of_int (i + round); next = !kept })
    in
    let sum = List.fold_left (fun acc c -> acc +. c.x +. float_of_int c.n) 0. cells in
    if round mod 50 = 0 then kept := Some { n = round; x = sum; next = None }
  done;
  ignore (Sys.opaque_identity !kept)

let sample () = List.init 5 (fun _ -> snd (Profile.with_wall_clock kernel))

let scale samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 1.
  else
    let mid = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2. in
    nominal_s /. mid
