(** What the benchmark observes around each call it makes into the
    program, and the benchmark's own in-memory spans.

    Host time is read only through {!Mcc_obs.Profile.now}.  Values that
    cross domains (runs observed inside batch workers, spans, the
    current mode) travel through [Atomic] cells. *)

type mode = {
  timing : bool;  (** the scheduler shim times every push and pop *)
  prof : bool;  (** {!Mcc_obs.Prof} collects on the domain for the call *)
}

val untraced : mode

type run = {
  setup_s : float;  (** call start until the first event popped *)
  wall_s : float;  (** the whole call *)
  minor_w : float;  (** minor words this domain allocated during the call *)
  promoted_w : float;
  shim : Shim.sample;
  prof : Mcc_obs.Prof.entry list;  (** [[]] unless [mode.prof] *)
  sched : Mcc_obs.Profile.sched_stats option;
      (** backend stats the engine parked, when the call left them *)
}

val observe : mode -> name:string -> (unit -> 'a) -> 'a * run
(** [observe mode ~name f] makes one call on this domain: arms
    the shim, reads the domain's GC counters, runs [f], and reads them
    again.  While spans are recorded ({!set_recording}), the call is
    the span [name].
    Exceptions from [f] propagate without a [run]. *)

(** {1 Cross-domain collection} *)

type 'a bag

val bag : unit -> 'a bag
val add : 'a bag -> 'a -> unit

val drain : 'a bag -> 'a list
(** Everything added since the last drain, oldest first. *)

(** {1 Spans} *)

type span = {
  id : int;
  parent : int;  (** 0 at the root *)
  name : string;
  domain : int;
  start : float;
  stop : float;
}

val set_recording : bool -> unit
(** Spans are recorded only while this is on (traced runs). *)

val span : string -> (int -> 'a) -> 'a
(** [span name f] calls [f id] and records the span [id] around it,
    under the span last given to {!set_parent}. *)

val set_parent : int -> unit
(** Makes [id] the span that later spans, on any domain, hang under. *)

val spans : unit -> span list
(** Recorded spans, in the order they finished. *)

val span_to_json : span -> Mcc_obs.Json.t

type state
(** The recorded spans and the next span id. *)

val export : unit -> state

val adopt : state -> unit
(** [adopt s], where a process forked from this one exported [s] after
    its last span, makes that process's spans this one's.  The forked
    process started from a copy of this one's spans and numbered its own
    after them, so [s] holds both. *)
