module Sim = Mcc_engine.Sim

type 'a t = {
  sim : Sim.t;
  slot_duration : float;
  processing_margin : float;
  base : float ref;
      (* estimated start of slot 0; a float ref so updating it per
         packet stores an unboxed float *)
  mutable synced : bool;
  mutable next_eval : int;
  mutable stopped : bool;
  closed : int array;  (* per lane: the highest slot known to be closed *)
  slots : (int, 'a) Hashtbl.t;
  fresh : unit -> 'a;
  mutable span : int -> int;
  mutable eval : int -> 'a -> unit;
}

let create sim ~slot_duration ~processing_margin ~lanes ~fresh =
  {
    sim;
    slot_duration;
    processing_margin;
    base = ref infinity;
    synced = false;
    next_eval = 0;
    stopped = false;
    closed = Array.make lanes (-1);
    slots = Hashtbl.create 8;
    fresh;
    span = (fun _ -> 0);
    eval = (fun _ _ -> ());
  }

let bind t ~span ~eval =
  t.span <- span;
  t.eval <- eval

let stop t = t.stopped <- true
let stopped t = t.stopped
let next_eval t = t.next_eval

let[@hot] slot_rec t slot =
  match Hashtbl.find t.slots slot with
  | exception Not_found ->
      let rec_ = t.fresh () in
      Hashtbl.replace t.slots slot rec_;
      rec_
  | rec_ -> rec_

let eval_slot t slot =
  t.eval slot (slot_rec t slot);
  (* Drop bookkeeping for this and any older slot. *)
  let stale =
    Hashtbl.fold (fun s _ acc -> if s <= slot then s :: acc else acc) t.slots []
  in
  List.iter (Hashtbl.remove t.slots) stale

(* A lane's slot is closed once its flagged last packet arrived or a
   packet of a later slot did: the path is FIFO, so nothing of the slot
   can still be in flight.  A slot is ready for evaluation when every
   lane of its span closed it. *)
let[@hot] rec lanes_closed t slot lane =
  lane < 0 || (t.closed.(lane) >= slot && lanes_closed t slot (lane - 1))

let[@hot] slot_closed t slot =
  let span = t.span slot in
  span >= 1 && lanes_closed t slot (span - 1)

let rec try_eval t =
  if (not t.stopped) && slot_closed t t.next_eval then begin
    let slot = t.next_eval in
    eval_slot t slot;
    t.next_eval <- slot + 1;
    try_eval t
  end

(* Wall-clock fallback: when a lane goes completely silent nothing
   closes the slot, so evaluate [processing_margin] of a slot after the
   boundary regardless (late packets then count as lost, as in
   FLID-DL). *)
let rec schedule_eval t =
  if not t.stopped then begin
    let slot = t.next_eval in
    let at =
      !(t.base)
      +. (float_of_int (slot + 1) *. t.slot_duration)
      +. (t.processing_margin *. t.slot_duration)
    in
    let at = Float.max at (Sim.now t.sim) in
    Sim.post t.sim ~at (fun () ->
        if not t.stopped then begin
          if t.next_eval = slot then begin
            eval_slot t slot;
            t.next_eval <- slot + 1;
            try_eval t
          end;
          schedule_eval t
        end)
  end

let[@hot] sync t ~slot =
  let candidate = Sim.now t.sim -. (float_of_int slot *. t.slot_duration) in
  if not t.synced then begin
    t.synced <- true;
    t.base := candidate;
    t.next_eval <- slot + 1;
    schedule_eval t;
    true
  end
  else begin
    if candidate < !(t.base) then t.base := candidate;
    false
  end

let[@hot] close_lane t ~lane ~slot ~last =
  let upto = if last then slot else slot - 1 in
  if upto > t.closed.(lane) then t.closed.(lane) <- upto
