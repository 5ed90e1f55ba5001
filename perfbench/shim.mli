(** A {!Mcc_engine.Scheduler.S} backend that wraps [Heap] or [Wheel] and
    is handed to the program through its ordinary [?sched] argument.

    Untraced, the shim does one thing: after {!arm}, it notes the host
    time at which the first event pops, which ends a run's set-up.
    Traced ({!arm} [~timing:true]), it also times every push and pop and
    counts them.  The wrapped backend decides the pop order, so records
    are the same bytes with or without the shim.

    State is per domain: [create] captures the calling domain's record,
    and batch workers {!arm} and {!take} inside the worker. *)

val heap : Mcc_engine.Scheduler.backend
val wheel : Mcc_engine.Scheduler.backend

val arm : timing:bool -> unit
(** Starts a run on this domain: clears the counters, waits for the
    first pop, and switches push/pop timing on or off. *)

type sample = {
  first_fire : float option;  (** {!Mcc_obs.Profile.now} at the first pop *)
  pushes : int;  (** timed pushes ([0] untraced) *)
  push_s : float;
  pops : int;  (** timed pops, empty ones included *)
  pop_s : float;
}

val take : unit -> sample
(** This domain's counters since {!arm}; stops timing. *)
