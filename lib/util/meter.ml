type t = {
  bin : float;
  mutable bins : float array; (* bytes per bin *)
  last_time : float ref;  (* all-float record: stored unboxed *)
  mutable total : int;
}

let create ?(bin = 1.0) () =
  { bin; bins = Array.make 64 0.; last_time = ref 0.; total = 0 }

let bin_index t time = int_of_float (time /. t.bin)

let ensure t idx =
  while idx >= Array.length t.bins do
    t.bins <- Array.append t.bins (Array.make (Array.length t.bins) 0.)
  done

let[@hot] record t ~time ~bytes =
  if time < !(t.last_time) then
    invalid_arg "Meter.record: time going backwards";
  t.last_time := time;
  let idx = bin_index t time in
  ensure t idx;
  t.bins.(idx) <- t.bins.(idx) +. float_of_int bytes;
  t.total <- t.total + bytes

let total_bytes t = t.total

let used_bins t = bin_index t !(t.last_time) + 1

let kbps_of_bytes t bytes = bytes *. 8. /. t.bin /. 1000.

let throughput_kbps t =
  List.init (used_bins t) (fun i ->
      (float_of_int (i + 1) *. t.bin, kbps_of_bytes t t.bins.(i)))

let smoothed_kbps t ~window =
  let n = used_bins t in
  let w = max 1 (int_of_float (window /. t.bin)) in
  List.init n (fun i ->
      let lo = max 0 (i - w + 1) in
      let sum = ref 0. in
      for j = lo to i do
        sum := !sum +. t.bins.(j)
      done;
      ( float_of_int (i + 1) *. t.bin,
        kbps_of_bytes t (!sum /. float_of_int (i - lo + 1)) ))

let mean_kbps t ~lo ~hi =
  if hi <= lo then 0.
  else begin
    (* Weight each bin by its overlap with [lo, hi): windows that do not
       align with bin boundaries still average correctly. *)
    let nbins = Array.length t.bins in
    let lo_idx = max 0 (bin_index t lo) in
    let hi_idx = min (nbins - 1) (bin_index t (hi -. 1e-12)) in
    let sum = ref 0. in
    for i = lo_idx to hi_idx do
      let bin_lo = float_of_int i *. t.bin in
      let bin_hi = bin_lo +. t.bin in
      let overlap = Float.min hi bin_hi -. Float.max lo bin_lo in
      if overlap > 0. then sum := !sum +. (t.bins.(i) *. overlap /. t.bin)
    done;
    !sum *. 8. /. (hi -. lo) /. 1000.
  end
