(** How fast the host runs OCaml code at the moment.

    On a shared host the same code runs up to twice as fast or as slow
    from one minute to the next, with the load of other tenants.  The
    benchmark times a fixed kernel between passes, in its own process,
    and scales a run's host times to the speed at which the kernel takes
    {!nominal_s}.  The kernel allocates and walks short lists of small
    records, as the simulator does, and calls nothing in the program,
    so no change to the program moves it. *)

val nominal_s : float
(** The kernel's time at the reference speed, in host seconds. *)

val sample : unit -> float list
(** Host seconds of five runs of the kernel, made now. *)

val scale : float list -> float
(** The factor that takes host seconds measured while [samples] were
    made to the reference speed: {!nominal_s} over their median. *)
