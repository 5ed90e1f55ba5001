(* Live sweep monitor; see the interface for the telemetry/determinism
   contract.  Workers feed atomics, a monitor domain turns them into
   periodic samples.  All host-clock reads go through the sanctioned
   [Profile.now]; the pacing sleep below is this module's one justified
   wall-clock pragma. *)

type sample = {
  total : int;
  completed : int;
  events : int;
  elapsed_s : float;
  events_per_sec : float;
  eta_s : float option;
  minor_words : float;
  major_words : float;
  top_heap_words : int;
  final : bool;
}

type t = {
  total : int;
  completed : int Atomic.t;
  events : int Atomic.t;
  minor : float Atomic.t;
  stopped : bool Atomic.t;
  started : float;
  on_progress : sample -> unit;
  mutable monitor : unit Domain.t option;
}

let take t ~final =
  let elapsed_s = Profile.now () -. t.started in
  let completed = Atomic.get t.completed in
  let events = Atomic.get t.events in
  let q = Gc.quick_stat () in
  let events_per_sec =
    if elapsed_s > 0. then float_of_int events /. elapsed_s else 0.
  in
  let eta_s =
    if final || completed = 0 || completed >= t.total then None
    else
      Some
        (elapsed_s
        *. float_of_int (t.total - completed)
        /. float_of_int completed)
  in
  {
    total = t.total;
    completed;
    events;
    elapsed_s;
    events_per_sec;
    eta_s;
    minor_words = Atomic.get t.minor;
    major_words = q.Gc.major_words;
    top_heap_words = q.Gc.top_heap_words;
    final;
  }

(* The monitor sleeps in slices of at most this many seconds, checking
   for [stop] between them, so stopping never waits out a long
   [interval]. *)
let max_slice = 0.02

let start ?(interval = 0.2) ~total ~on_progress () =
  let t =
    {
      total;
      completed = Atomic.make 0;
      events = Atomic.make 0;
      minor = Atomic.make 0.;
      stopped = Atomic.make false;
      started = Profile.now ();
      on_progress;
      monitor = None;
    }
  in
  let monitor =
    Domain.spawn (fun () ->
        let due = ref (Profile.now () +. interval) in
        (* lint: allow domain-escape — worker-atomics: the monitor reads only t's Atomic fields *)
        while not (Atomic.get t.stopped) do
          let wait = Float.min max_slice (!due -. Profile.now ()) in
          if wait > 0. then
            (* lint: allow wall-clock — monitor pacing sleep, meter-only *)
            Unix.sleepf wait
          else begin
            on_progress (take t ~final:false);
            due := Profile.now () +. interval
          end
        done)
  in
  t.monitor <- Some monitor;
  t

let cell_done t ~events ~minor_words =
  ignore (Atomic.fetch_and_add t.completed 1);
  ignore (Atomic.fetch_and_add t.events events);
  let rec add () =
    let old = Atomic.get t.minor in
    if not (Atomic.compare_and_set t.minor old (old +. minor_words)) then
      add ()
  in
  add ()

let stop t =
  Atomic.set t.stopped true;
  Option.iter Domain.join t.monitor;
  t.monitor <- None;
  let s = take t ~final:true in
  t.on_progress s;
  s

let render (s : sample) =
  let pct =
    if s.total > 0 then
      100. *. float_of_int s.completed /. float_of_int s.total
    else 100.
  in
  let eta =
    match s.eta_s with
    | Some e -> Printf.sprintf " | eta %.1fs" e
    | None -> ""
  in
  Printf.sprintf
    "[ %d/%d cells %5.1f%% | %.2e ev/s%s | gc minor %.1fMw major %.1fMw \
     heap %.1fMw ]"
    s.completed s.total pct s.events_per_sec eta (s.minor_words /. 1e6)
    (s.major_words /. 1e6)
    (float_of_int s.top_heap_words /. 1e6)
