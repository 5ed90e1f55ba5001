module Metrics = Mcc_obs.Metrics

type handle = {
  mutable cancelled : bool;
  mutable fire : unit -> unit;
  (* [post]ed handles never escape to a caller, so the sim recycles
     them through an internal pool after they fire. *)
  mutable recycle : bool;
}

let noop () = ()

type t = {
  queue : handle Scheduler.queue;
  mutable clock : float;
  mutable executed : int;
  (* Hot-loop scratch: [pop_into] writes the event time into
     [time_cell] (an unboxed store) and returns [sentinel] when the
     queue is empty, so a step allocates nothing. *)
  time_cell : float ref;
  sentinel : handle;
  (* Free list of recyclable handles: [post]/[post_after] reuse fired
     records, so steady-state fire-and-forget scheduling allocates
     nothing.  Stack-backed; the sentinel fills the unused slots. *)
  mutable pool : handle array;
  mutable pool_len : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  (* Telemetry handles, fetched at creation so the hot loop never does a
     registry lookup; [reported] makes the flush incremental, so several
     sims in one domain sum into "engine.events". *)
  events_metric : Metrics.counter;
  queue_capacity_metric : Metrics.gauge;
  backend_capacity_metric : Metrics.gauge;
  mutable reported : int;
}

(* Called when a run returns to its driver, not per event: the hot loop
   carries zero instrumentation cost. *)
let flush_metrics t =
  Metrics.incr t.events_metric ~by:(t.executed - t.reported);
  t.reported <- t.executed;
  let capacity = float_of_int (t.queue.Scheduler.capacity ()) in
  Metrics.set t.queue_capacity_metric capacity;
  Metrics.set t.backend_capacity_metric capacity;
  (* Park the backend probe (plus this sim's handle-pool counters) for
     whoever builds the run profile on this domain. *)
  Mcc_obs.Profile.note_sched_stats
    {
      (t.queue.Scheduler.stats ()) with
      Mcc_obs.Profile.pool_hits = t.pool_hits;
      pool_misses = t.pool_misses;
    }

let now t = t.clock
let sched_name t = t.queue.Scheduler.backend

let schedule t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: at=%g is before now=%g" at t.clock);
  let h = { cancelled = false; fire = f; recycle = false } in
  t.queue.Scheduler.push ~time:at h;
  h

let schedule_after t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) f

let[@hot] take_handle t f =
  if t.pool_len = 0 then begin
    t.pool_misses <- t.pool_misses + 1;
    (* lint: allow hot-alloc — pool miss builds the record being pooled *)
    { cancelled = false; fire = f; recycle = true }
  end
  else begin
    t.pool_hits <- t.pool_hits + 1;
    t.pool_len <- t.pool_len - 1;
    let h = t.pool.(t.pool_len) in
    t.pool.(t.pool_len) <- t.sentinel;
    h.cancelled <- false;
    h.fire <- f;
    h
  end

let[@hot] put_handle t h =
  (* Drop the closure so a parked handle retains nothing. *)
  h.fire <- noop;
  let cap = Array.length t.pool in
  if t.pool_len = cap then begin
    (* lint: allow hot-alloc — amortised doubling, not steady state *)
    let grown = Array.make (if cap = 0 then 64 else 2 * cap) t.sentinel in
    Array.blit t.pool 0 grown 0 cap;
    t.pool <- grown
  end;
  t.pool.(t.pool_len) <- h;
  t.pool_len <- t.pool_len + 1

(* Out of line so the formatted message is built only on the error
   path, never in [post]'s own (hot) body. *)
let post_in_past at clock =
  invalid_arg (Printf.sprintf "Sim.post: at=%g is before now=%g" at clock)

let[@hot] post t ~at f =
  if at < t.clock then post_in_past at t.clock;
  t.queue.Scheduler.push ~time:at (take_handle t f)

let[@hot] post_after t ~delay f =
  if delay < 0. then invalid_arg "Sim.post_after: negative delay";
  post t ~at:(t.clock +. delay) f

let cancel h = h.cancelled <- true
let cancelled h = h.cancelled

let every t ~start ~period f =
  if period <= 0. then invalid_arg "Sim.every: period <= 0";
  (* The outer handle stands for the whole periodic task: cancelling it
     prevents both the pending tick and all future rescheduling. *)
  let outer = { cancelled = false; fire = noop; recycle = false } in
  let rec tick at () =
    if not outer.cancelled then begin
      f ();
      if not outer.cancelled then begin
        let next = at +. period in
        post t ~at:next (tick next)
      end
    end
  in
  outer.fire <- noop;
  post t ~at:start (tick start);
  outer

let create ?sched () =
  let backend =
    match sched with Some b -> b | None -> Scheduler.default ()
  in
  let queue = Scheduler.instantiate backend () in
  let t =
    {
      queue;
      clock = 0.;
      executed = 0;
      time_cell = ref 0.;
      sentinel = { cancelled = true; fire = noop; recycle = false };
      pool = [||];
      pool_len = 0;
      pool_hits = 0;
      pool_misses = 0;
      events_metric = Metrics.counter "engine.events";
      queue_capacity_metric = Metrics.gauge "engine.queue_capacity";
      backend_capacity_metric =
        Metrics.gauge ("engine.queue_capacity." ^ queue.Scheduler.backend);
      reported = 0;
    }
  in
  (* The time-series clock hook: mcc_obs cannot depend on the engine, so
     the dependency is inverted — when this domain has sampling enabled
     ([Timeseries.enable ~dt]), the sim drives [Timeseries.sample_all]
     through its own queue at that period.  Installed here, not lazily,
     so the sample times of a spec are identical no matter which
     components later register samplers. *)
  (match Mcc_obs.Timeseries.dt () with
  | Some period ->
      ignore
        (every t ~start:0. ~period (fun () ->
             Mcc_obs.Timeseries.sample_all ~time:t.clock))
  | None -> ());
  t

let[@hot] step t =
  let h = t.queue.Scheduler.pop_into t.time_cell t.sentinel in
  if h == t.sentinel then false
  else begin
    (* lint: allow hot-alloc — one box per event; a flat clock would box on every Sim.now read *)
    t.clock <- !(t.time_cell);
    if not h.cancelled then begin
      t.executed <- t.executed + 1;
      h.fire ()
    end;
    if h.recycle then put_handle t h;
    true
  end

(* The profiled loop variants live apart from the plain ones so the
   disabled path stays byte-for-byte the existing loop: [run]/[run_until]
   branch ONCE on [Prof.enabled] at entry, never per event.  Inside the
   instrumented loop, scheduler time (pop + requeue bookkeeping) accrues
   to "engine.sched" and callback time to whatever spans the components
   open; the remainder is the engine's own self time. *)
let run_until_profiled t horizon =
  let root = Mcc_obs.Prof.span "engine" in
  let running = ref true in
  while !running do
    let sp = Mcc_obs.Prof.span "engine.sched" in
    let h = t.queue.Scheduler.pop_before t.time_cell ~bound:horizon t.sentinel in
    Mcc_obs.Prof.finish sp;
    if h == t.sentinel then running := false
    else begin
      t.clock <- !(t.time_cell);
      if not h.cancelled then begin
        t.executed <- t.executed + 1;
        h.fire ()
      end;
      if h.recycle then put_handle t h
    end
  done;
  Mcc_obs.Prof.finish root

let run_until t horizon =
  if Mcc_obs.Prof.enabled () then run_until_profiled t horizon
  else begin
    let running = ref true in
    while !running do
      let h =
        t.queue.Scheduler.pop_before t.time_cell ~bound:horizon t.sentinel
      in
      if h == t.sentinel then running := false
      else begin
        t.clock <- !(t.time_cell);
        if not h.cancelled then begin
          t.executed <- t.executed + 1;
          h.fire ()
        end;
        if h.recycle then put_handle t h
      end
    done
  end;
  t.clock <- max t.clock horizon;
  flush_metrics t

let run_profiled t =
  let root = Mcc_obs.Prof.span "engine" in
  let running = ref true in
  while !running do
    let sp = Mcc_obs.Prof.span "engine.sched" in
    let h = t.queue.Scheduler.pop_into t.time_cell t.sentinel in
    Mcc_obs.Prof.finish sp;
    if h == t.sentinel then running := false
    else begin
      t.clock <- !(t.time_cell);
      if not h.cancelled then begin
        t.executed <- t.executed + 1;
        h.fire ()
      end;
      if h.recycle then put_handle t h
    end
  done;
  Mcc_obs.Prof.finish root

let run t =
  if Mcc_obs.Prof.enabled () then run_profiled t
  else
    while step t do
      ()
    done;
  flush_metrics t

let events_executed t = t.executed
let queue_capacity t = t.queue.Scheduler.capacity ()
