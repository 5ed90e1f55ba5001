open Mcc_engine
module Profile = Mcc_obs.Profile

type state = {
  mutable armed : bool;
  mutable first_fire : float;
  mutable fired : bool;
  mutable timing : bool;
  mutable pushes : int;
  mutable push_s : float;
  mutable pops : int;
  mutable pop_s : float;
}

let key =
  Domain.DLS.new_key (fun () ->
      { armed = false; first_fire = 0.; fired = false; timing = false;
        pushes = 0; push_s = 0.; pops = 0; pop_s = 0. })

let arm ~timing =
  let st = Domain.DLS.get key in
  st.armed <- true;
  st.fired <- false;
  st.timing <- timing;
  st.pushes <- 0;
  st.push_s <- 0.;
  st.pops <- 0;
  st.pop_s <- 0.

type sample = {
  first_fire : float option;
  pushes : int;
  push_s : float;
  pops : int;
  pop_s : float;
}

let take () =
  let st = Domain.DLS.get key in
  st.armed <- false;
  st.timing <- false;
  { first_fire = (if st.fired then Some st.first_fire else None);
    pushes = st.pushes; push_s = st.push_s; pops = st.pops; pop_s = st.pop_s }

let fire st =
  st.armed <- false;
  st.fired <- true;
  st.first_fire <- Profile.now ()

module Wrap (B : Scheduler.S) : Scheduler.S = struct
  let name = B.name

  type 'a t = { q : 'a B.t; st : state }

  let create () = { q = B.create (); st = Domain.DLS.get key }
  let is_empty t = B.is_empty t.q
  let size t = B.size t.q
  let peek_time t = B.peek_time t.q
  let next_before t bound = B.next_before t.q bound
  let clear t = B.clear t.q
  let capacity t = B.capacity t.q
  let stats t = B.stats t.q

  let push t ~time v =
    let st = t.st in
    if st.timing then begin
      let t0 = Profile.now () in
      B.push t.q ~time v;
      st.push_s <- st.push_s +. (Profile.now () -. t0);
      st.pushes <- st.pushes + 1
    end
    else B.push t.q ~time v

  (* [popped] is false when the backend handed back the caller's
     sentinel, i.e. nothing was due. *)
  let after_pop st t0 popped =
    if st.timing then begin
      st.pop_s <- st.pop_s +. (Profile.now () -. t0);
      st.pops <- st.pops + 1
    end;
    if popped && st.armed then fire st

  let start st = if st.timing then Profile.now () else 0.

  let pop t =
    let st = t.st in
    let t0 = start st in
    let r = B.pop t.q in
    after_pop st t0 (Option.is_some r);
    r

  let pop_into t cell default =
    let st = t.st in
    let t0 = start st in
    let v = B.pop_into t.q cell default in
    after_pop st t0 (v != default);
    v

  let pop_before t cell ~bound default =
    let st = t.st in
    let t0 = start st in
    let v = B.pop_before t.q cell ~bound default in
    after_pop st t0 (v != default);
    v
end

let heap : Scheduler.backend = (module Wrap (Scheduler.Heap))
let wheel : Scheduler.backend = (module Wrap (Scheduler.Wheel))
