module Profile = Mcc_obs.Profile
module Prof = Mcc_obs.Prof
module Json = Mcc_obs.Json

type mode = { timing : bool; prof : bool }

let untraced = { timing = false; prof = false }

type run = {
  setup_s : float;
  wall_s : float;
  minor_w : float;
  promoted_w : float;
  shim : Shim.sample;
  prof : Prof.entry list;
  sched : Profile.sched_stats option;
}

type 'a bag = 'a list Atomic.t

let bag () = Atomic.make []

let rec add b x =
  let old = Atomic.get b in
  if not (Atomic.compare_and_set b old (x :: old)) then add b x

let drain b = List.rev (Atomic.exchange b [])

type span = {
  id : int;
  parent : int;
  name : string;
  domain : int;
  start : float;
  stop : float;
}

let recording = Atomic.make false
let next_id = Atomic.make 1
let parent_cell = Atomic.make 0
let recorded : span bag = bag ()
let set_recording on = Atomic.set recording on
let set_parent id = Atomic.set parent_cell id
let current_parent () = Atomic.get parent_cell
let spans () = List.rev (Atomic.get recorded)

type state = span list * int

let export () = (Atomic.get recorded, Atomic.get next_id)

let adopt (spans, next) =
  Atomic.set recorded spans;
  Atomic.set next_id next

let span name f =
  if not (Atomic.get recording) then f 0
  else begin
    let parent = current_parent () in
    let id = Atomic.fetch_and_add next_id 1 in
    let start = Profile.now () in
    let finish () =
      add recorded
        { id; parent; name; domain = (Domain.self () :> int); start;
          stop = Profile.now () }
    in
    match f id with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

let span_to_json s =
  Json.Obj
    [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
      ("name", Json.String s.name); ("domain", Json.Int s.domain);
      ("start", Json.Float s.start); ("stop", Json.Float s.stop) ]

(* The engine parks its backend stats for the Runner, which folds them
   into the run profile; peeking puts them back so the Runner still finds
   them. *)
let peek_sched_stats () =
  let s = Profile.take_sched_stats () in
  Option.iter Profile.note_sched_stats s;
  s

let gc_counters () =
  (* lint: allow gc-stats — feeds the benchmark report only *)
  let minor, promoted, _ = Gc.counters () in
  (minor, promoted)

let observe mode ~name f =
  span name (fun _ ->
      Shim.arm ~timing:mode.timing;
      if mode.prof then Prof.enable ();
      let minor0, promoted0 = gc_counters () in
      let t0 = Profile.now () in
      let stop () =
        let t1 = Profile.now () in
        let minor1, promoted1 = gc_counters () in
        let prof =
          if mode.prof then begin
            let p = Prof.snapshot () in
            Prof.disable ();
            p
          end
          else []
        in
        (t1, minor1 -. minor0, promoted1 -. promoted0, prof)
      in
      match f () with
      | exception e ->
          ignore (stop ());
          ignore (Shim.take ());
          raise e
      | r ->
          let t1, minor_w, promoted_w, prof = stop () in
          let shim = Shim.take () in
          let setup_s =
            match shim.Shim.first_fire with
            | Some t -> t -. t0
            | None -> t1 -. t0
          in
          ( r,
            { setup_s; wall_s = t1 -. t0; minor_w; promoted_w; shim;
              prof; sched = peek_sched_stats () } ))
