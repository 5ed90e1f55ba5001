(** Live telemetry monitor for long Domain-parallel sweeps.

    A monitor watches a batch of [total] cells run by worker domains:
    workers report each finished cell with {!cell_done}, and a dedicated
    monitor domain wakes every [interval] seconds to assemble a
    {!sample} — completion, aggregate events/s, an ETA, and GC telemetry
    ([Gc.quick_stat] major words and heap high-water from the monitor's
    own view of the shared major heap, plus worker-reported minor
    words) — and hand it to the [on_progress] callback.

    Telemetry never touches results: the callback fires at
    host-timing-dependent moments, so callers must route it to ephemeral
    output only (the CLI renders a stderr meter).  Batch sinks are fed
    after the sweep in deterministic order, unchanged — the runner's
    byte-identical-sinks guarantee holds with a monitor attached.

    Clock discipline: elapsed time and ETA read the host clock through
    the one sanctioned site ({!Profile.now}); the monitor's pacing sleep
    is this module's own justified [wall-clock] pragma site. *)

type sample = {
  total : int;  (** cells in the batch *)
  completed : int;  (** cells finished so far *)
  events : int;  (** simulation events across finished cells *)
  elapsed_s : float;  (** wall seconds since {!start} *)
  events_per_sec : float;  (** [events /. elapsed_s] (0 at t=0) *)
  eta_s : float option;
      (** linear-extrapolation estimate of remaining wall seconds; [None]
          until at least one cell has finished or once all have *)
  minor_words : float;  (** worker-reported minor allocations (words) *)
  major_words : float;  (** [Gc.quick_stat] major words *)
  top_heap_words : int;  (** [Gc.quick_stat] heap high-water (words) *)
  final : bool;  (** [true] only for the sample {!stop} emits *)
}

type t

val start :
  ?interval:float -> total:int -> on_progress:(sample -> unit) -> unit -> t
(** Spawns the monitor domain; it calls [on_progress] every [interval]
    seconds (default 0.2) until {!stop}.  [on_progress] runs on the
    monitor domain (and once, for the final sample, on the caller of
    {!stop}), so it must not touch domain-local state of the workers. *)

val cell_done : t -> events:int -> minor_words:float -> unit
(** Worker-side report of one finished cell: the cell's event count and
    the minor words its domain allocated while running it.  Safe to call
    concurrently from any domain. *)

val stop : t -> sample
(** Stops and joins the monitor domain, then emits one final sample
    (with [final = true]) through [on_progress] and returns it.  ETA is
    suppressed on the final sample.  The monitor paces itself in sleeps
    of at most 20 ms, so [stop] returns within about that (plus one
    [on_progress] call in flight), whatever the [interval]. *)

val render : sample -> string
(** One-line meter for the sample, no trailing newline — e.g.
    [[ 12/48 cells  25.0% | 1.31e+06 ev/s | eta 3.2s | gc minor 12.1Mw
    major 0.4Mw heap 6.2Mw ]].  The CLI prints it to stderr behind a
    carriage return. *)
