(** The benchmark's four workloads.  Each is a fixed unit of work, a
    {e pass}, built from the seed; a measured run repeats passes in a
    closed loop (the next run starts when the previous one ends).

    - [paper]: every registry entry at 1/32 of its duration, serially.
    - [matrix]: the 96-cell attack × protocol × defence grid on 2
      domains at a 20 s horizon.
    - [fat-tree]: one k=8 fat-tree flash-crowd document under
      delta+sigma+ecn, validated and run.
    - [profiled]: fig7 and two defended cells, each run both plain and
      through [Runner.run_spec_instrumented] with series sampling, the
      order alternating from pass to pass.

    BENCHMARK.json measures the last three.  [paper] stays available
    for runs by hand ([--workload paper]): its layers are all covered
    by the other three, and leaving it out lets each measured run be
    longer within the same total time.

    Seed [0] reproduces the registry's own seeds; seed [n] shifts every
    spec seed by [7919 n], and attack onsets, burst windows and join
    times by up to 5% of the horizon (most experiments use their seed
    only for key nonces, so the seed alone would not change their
    outcome). *)

type record = {
  run : string;
  digest : string;
      (** of the run's deterministic record: spec, result, metrics
          snapshot and series, profile stripped *)
  outcome : string;
      (** of the result, metrics but [engine.events], and series only *)
}

type pass = {
  records : record list;  (** in a fixed order *)
  runs : Obs.run list;  (** one per call into the program *)
  wall_s : float;  (** the whole pass *)
  counters : (string * int) list;  (** metric counters summed over runs *)
  failures : string list;  (** runs whose output breaks a check *)
  plain_s : float;  (** [profiled]: Σ wall of the plain runs, else 0 *)
  instrumented_s : float;  (** [profiled]: Σ wall of the instrumented runs *)
}

type t = {
  name : string;
  domains : int;  (** domains a pass runs on *)
  runs_per_pass : int;
  pass : index:int -> Obs.mode -> Mcc_engine.Scheduler.backend -> pass;
      (** [index] alternates the plain/instrumented order on [profiled] *)
}

val names : string list

val make : string -> seed:int -> t option

val install_hooks : unit -> unit
(** Wraps the matrix-cell and workload implementations the program
    registered, so cells running in batch workers are observed inside
    their domain.  Call once, before any pass. *)

val probe_workload_layer : seed:int -> float list * float list
(** Host seconds of five [Schema] validations and five [Topo_gen.build]
    calls on the seed's fat-tree document. *)

val counter : pass -> string -> int
