(** The receiver-side slot clock shared by every protocol in this
    library.

    Senders divide time into slots and stamp each data packet with its
    slot; a receiver evaluates its slots in order.  The clock keeps the
    per-slot records of the protocol (type ['a]), estimates the start of
    slot 0 from arrivals (the earliest [arrival - slot * duration]
    seen), and decides when the next slot is ready:

    - self-clocked: a slot is evaluated as soon as every {e lane} of
      its span closed it, a lane being closed by its flagged last
      packet of the slot or by any packet of a later slot (the FIFO
      path guarantees nothing is still in flight);
    - wall-clock fallback: [processing_margin] of a slot after the
      estimated boundary the slot is evaluated regardless, so a lane
      that went completely silent cannot stall the receiver.

    Lanes are what the protocol waits on: the groups of a layered
    subscription, or the single group of a replicated one.  After a
    slot is evaluated its record and every older one are dropped. *)

type 'a t

val create :
  Mcc_engine.Sim.t ->
  slot_duration:float ->
  processing_margin:float ->
  lanes:int ->
  fresh:(unit -> 'a) ->
  'a t
(** [fresh] builds an empty slot record. *)

val bind : 'a t -> span:(int -> int) -> eval:(int -> 'a -> unit) -> unit
(** Installs the protocol's side, once, right after {!create}:
    [span s] is the number of lanes (0, 1, ...) that must close slot
    [s] before it is evaluated, 0 meaning "not evaluable yet";
    [eval s record] is the slot's evaluation. *)

val sync : 'a t -> slot:int -> bool
(** Feeds one data packet's slot stamp, at the current simulated time,
    into the slot-0 estimate.  [true] on the session's first packet:
    evaluation then starts with the following slot, and the fallback
    timer is armed. *)

val close_lane : 'a t -> lane:int -> slot:int -> last:bool -> unit
(** A packet of slot [slot] arrived on lane [lane] (0-based); [last]:
    it is the lane's flagged last packet of the slot. *)

val next_eval : 'a t -> int
(** The next slot to evaluate; packets of older slots are late. *)

val slot_rec : 'a t -> int -> 'a
(** The record of slot [s], created on first use. *)

val try_eval : 'a t -> unit
(** Evaluates every consecutive closed slot. *)

val stop : 'a t -> unit
(** No further evaluation. *)

val stopped : 'a t -> bool
