(* lint: allow mli-coverage — executable entry point, no public interface *)

(* The benchmark described by BENCHMARK.json.  See run.py for how it is
   built and invoked, and workloads.mli for what each workload runs.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --write-digests          (re-record the seed-0 digests)
     main.exe --self-test              (digests move with the seed)
     main.exe --shim-check --workload W --pairs N

   The last line of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.

   The measured run's host times (setup_s, wall_s, pkt_hops_per_s) are
   scaled to a fixed host speed, as host_speed.mli describes; standard
   error shows the unscaled wall time and the scale. *)

module Profile = Mcc_obs.Profile
module Prof = Mcc_obs.Prof
module Json = Mcc_obs.Json
module Scheduler = Mcc_engine.Scheduler

let digests_file = "perfbench/digests.txt"
let spans_dir = ".perfbench"

(* --- small statistics ------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0.) else (a.(n / 4), a.(min (n - 1) (3 * n / 4)))

let ratio a b = if b > 0. then a /. b else 0.
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let fi = float_of_int

(* --- stored digests --------------------------------------------------------- *)

let load_digests () =
  match open_in digests_file with
  | exception Sys_error _ -> []
  | ic ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            List.rev acc
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ w; run; d ] -> loop (((w, run), d) :: acc)
            | _ -> loop acc)
      in
      loop []

(* --- checks ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let complain fmt = Printf.ksprintf prerr_endline fmt

(* Count one pass: every run in it is attempted; a run fails when the
   pass raised, when the workload's own output check failed, when its
   record differs from the reference pass, or (at seed 0) from the
   stored digest. *)
let tally_pass tally (w : Workloads.t) ~stored ~reference result =
  match result with
  | Error e ->
      complain "%s: pass raised %s" w.name (Printexc.to_string e);
      tally.attempted <- tally.attempted + w.runs_per_pass;
      tally.failed <- tally.failed + w.runs_per_pass
  | Ok (p : Workloads.pass) ->
      let bad = Hashtbl.create 8 in
      let flag name why =
        if not (Hashtbl.mem bad name) then begin
          complain "%s: %s: %s" w.name name why;
          Hashtbl.replace bad name ()
        end
      in
      List.iter (fun n -> flag n "output check failed") p.failures;
      List.iter
        (fun ({ run; digest; _ } : Workloads.record) ->
          (match reference with
          | Some (r : Workloads.pass) -> (
              match List.find_opt (fun (x : Workloads.record) -> String.equal x.run run) r.records with
              | Some x when String.equal x.digest digest -> ()
              | Some _ | None -> flag run "record differs from the reference pass")
          | None -> ());
          match stored with
          | Some table -> (
              match List.assoc_opt (w.name, run) table with
              | Some d when String.equal d digest -> ()
              | Some _ -> flag run "record differs from the stored digest"
              | None -> flag run "no stored digest")
          | None -> ())
        p.records;
      tally.attempted <- tally.attempted + List.length p.records;
      tally.failed <- tally.failed + Hashtbl.length bad

let major_collections () =
  (* lint: allow gc-stats — feeds the benchmark report only *)
  (Gc.quick_stat ()).Gc.major_collections

(* Runs [f] in a process forked for it and returns what it returned, or
   the exception it raised, as a message. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (try
         let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
         let oc = Unix.out_channel_of_descr wr in
         Marshal.to_channel oc (r : ('a, string) result) [];
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r : ('a, string) result =
        match Marshal.from_channel ic with
        | r -> r
        | exception End_of_file -> Error "the pass's process ended without a result"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      r

(* Every pass runs in a process forked for it, on that process's only
   domain, from a compacted heap.  On a spawned domain of this process a
   pass ran about 30% slower on a 2-core host, and by an amount that
   varied with the host's load: every minor collection stops the world,
   so this process's idle domain had to be woken for each one.  A fresh
   process also drops the domain-local state the program keeps growing
   from run to run (the transport mux's node registry is never cleared).
   Returns the pass and the major collections it made. *)
let pass_gc (w : Workloads.t) ~index mode sched =
  Gc.compact ();
  match
    in_child (fun () ->
        let major0 = major_collections () in
        let p = w.pass ~index mode sched in
        (p, major_collections () - major0, Obs.export ()))
  with
  | Ok (p, major, obs) ->
      Obs.adopt obs;
      (p, major)
  | Error msg -> failwith msg

let pass w ~index mode sched = fst (pass_gc w ~index mode sched)

let run_pass (w : Workloads.t) ~index mode sched =
  match pass_gc w ~index mode sched with
  | r -> Ok r
  | exception e -> Error e

(* --- output ----------------------------------------------------------------- *)

let print_result tally metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed body

(* --- measured runs (tracing off) -------------------------------------------- *)

let min_passes = 2

let measure (w : Workloads.t) ~seed ~seconds =
  let stored = if seed = 0 then Some (load_digests ()) else None in
  let tally = { attempted = 0; failed = 0 } in
  let start = Profile.now () in
  (* Only the first pass is kept whole, as the reference; later ones are
     cut down to their figures at once.  Small records kept from every
     pass would pin pools of the major heap and grow the process with
     the pass count. *)
  let summary (p : Workloads.pass) =
    let setup = sumf (fun (r : Obs.run) -> r.setup_s) p.runs in
    let wall = p.wall_s -. (setup /. fi w.domains) in
    let hops = fi (Workloads.counter p "link.tx_packets") in
    let minor = sumf (fun (r : Obs.run) -> r.minor_w) p.runs in
    (setup, wall, hops, ratio minor hops)
  in
  (* Stop once the next pass would most likely end past the deadline
     (it would end half a pass past it or later), so a run takes about
     [seconds] however long one pass is.  The host-speed kernel runs
     before the first pass and after each one. *)
  let rec loop i reference acc kernel =
    let t0 = Profile.now () in
    let r = Result.map fst (run_pass w ~index:i Obs.untraced Shim.heap) in
    let kernel = Host_speed.sample () @ kernel in
    tally_pass tally w ~stored ~reference r;
    let reference, acc =
      match r with
      | Ok p ->
          complain "%s: pass %d: %.4f s" w.name i p.wall_s;
          ((if Option.is_none reference then Some p else reference), summary p :: acc)
      | Error _ -> (reference, acc)
    in
    let now = Profile.now () in
    if i + 1 >= min_passes && now -. start +. ((now -. t0) /. 2.) >= seconds then
      (List.rev acc, kernel)
    else loop (i + 1) reference acc kernel
  in
  let passes, kernel = loop 0 None [] (Host_speed.sample ()) in
  let scale = Host_speed.scale kernel in
  let pick f = median (List.map f passes) in
  let wall = pick (fun (_, w, _, _) -> w) in
  complain "%s: host-speed kernel median %.3f ms (%d runs), scale %.4f; unscaled wall %.4f s"
    w.name (Host_speed.nominal_s /. scale *. 1e3) (List.length kernel) scale wall;
  print_result tally
    [ ("setup_s", scale *. pick (fun (s, _, _, _) -> s), "s");
      ("wall_s", scale *. wall, "s");
      ("pkt_hops_per_s", pick (fun (_, w, h, _) -> ratio h w) /. scale, "1/s");
      ("minor_words_per_pkt_hop", pick (fun (_, _, _, m) -> m), "words");
      ("ok_frac", ratio (fi (tally.attempted - tally.failed)) (fi tally.attempted), "frac") ];
  tally

(* --- the traced run ----------------------------------------------------------- *)

(* Self time, calls and minor words of every Prof node named [leaf]. *)
let layer runs leaf =
  List.fold_left
    (fun (s, c, w) (r : Obs.run) ->
      List.fold_left
        (fun (s, c, w) (e : Prof.entry) ->
          match List.rev e.path with
          | l :: _ when String.equal l leaf ->
              (s +. e.self_s, c + e.count, w +. e.alloc_w)
          | _ -> (s, c, w))
        (s, c, w) r.prof)
    (0., 0, 0.) runs

let write_spans (w : Workloads.t) ~seed =
  (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/%s-s%d.spans.jsonl" spans_dir w.name seed in
  let oc = open_out path in
  List.iter
    (fun s -> output_string oc (Json.to_string (Obs.span_to_json s) ^ "\n"))
    (Obs.spans ());
  close_out oc

(* Host seconds one [Profile.now] call takes.  A timed push or pop reads
   the clock twice: about one read lands inside the measured interval and
   two in the run's wall time, so both are taken back out. *)
let clock_cost () =
  let n = 100_000 in
  median
    (List.init 5 (fun _ ->
         let t0 = Profile.now () in
         for _ = 1 to n do
           ignore (Profile.now ())
         done;
         (Profile.now () -. t0) /. fi n))

(* One pass in each of four modes, same workload and seed:
   A untraced (reference records, counts, GC, run walls);
   B shim timing on (scheduler push/pop cost);
   C Prof on, on the wheel backend (the layer split inside callbacks);
   D both on, heap again (the overhead factors).
   Every pass must reproduce A's records byte for byte. *)
let traced (w : Workloads.t) ~seed =
  let stored = if seed = 0 then Some (load_digests ()) else None in
  let tally = { attempted = 0; failed = 0 } in
  let a, major =
    match run_pass w ~index:0 Obs.untraced Shim.heap with
    | Ok (p, major) -> (Ok p, major)
    | Error e -> (Error e, 0)
  in
  tally_pass tally w ~stored ~reference:None a;
  let reference = Result.to_option a in
  Obs.set_recording true;
  let phase index mode sched =
    let r = Result.map fst (run_pass w ~index mode sched) in
    tally_pass tally w ~stored:None ~reference r;
    r
  in
  let b = phase 1 { Obs.timing = true; prof = false } Shim.heap in
  let c = phase 2 { Obs.timing = false; prof = true } Shim.wheel in
  let d = phase 3 { Obs.timing = true; prof = true } Shim.heap in
  let validate_s, topo_s = Workloads.probe_workload_layer ~seed in
  Obs.set_recording false;
  write_spans w ~seed;
  (match (a, b, c, d) with
  | Ok a, Ok b, Ok c, Ok d ->
      let count name = fi (Workloads.counter a name) in
      let hops = count "link.tx_packets" in
      let events = count "engine.events" in
      let walls (p : Workloads.pass) = sumf (fun (r : Obs.run) -> r.wall_s) p.runs in
      let shim f (p : Workloads.pass) = sumf (fun (r : Obs.run) -> f r.shim) p.runs in
      let pushes = shim (fun s -> fi s.Shim.pushes) b in
      let pops = shim (fun s -> fi s.Shim.pops) b in
      let push_s = shim (fun s -> s.Shim.push_s) b in
      let pop_s = shim (fun s -> s.Shim.pop_s) b in
      let cost = clock_cost () in
      let push_s = Float.max 0. (push_s -. (pushes *. cost)) in
      let pop_s = Float.max 0. (pop_s -. (pops *. cost)) in
      let wall_b = walls b -. ((pushes +. pops) *. 2. *. cost) in
      let sched f =
        List.filter_map
          (fun (r : Obs.run) -> Option.map f r.sched)
          a.runs
      in
      let pool_hits = fi (List.fold_left ( + ) 0 (sched (fun s -> s.Profile.pool_hits))) in
      let pool_misses = fi (List.fold_left ( + ) 0 (sched (fun s -> s.Profile.pool_misses))) in
      let max_size = List.fold_left max 0 (sched (fun s -> s.Profile.max_size)) in
      let self leaf =
        let s, _, _ = layer c.runs leaf in
        ratio s (walls c)
      in
      let link_s, _, link_w = layer c.runs "link" in
      let node_s, node_n, node_w = layer c.runs "node" in
      let sigma_s, sigma_n, _ = layer c.runs "sigma" in
      let spans =
        sumf
          (fun (r : Obs.run) ->
            sumf (fun (e : Prof.entry) -> fi e.count) r.prof)
          c.runs
      in
      let drops = count "link.drops" in
      let accepted = count "sigma.keys_accepted" in
      let checked = accepted +. count "sigma.keys_rejected" in
      let cell_walls = List.map (fun (r : Obs.run) -> r.wall_s) a.runs in
      let obs_overhead =
        if a.instrumented_s > 0. then ratio a.instrumented_s a.plain_s
        else ratio d.wall_s b.wall_s
      in
      print_result tally
        [ ("engine.events_per_pkt_hop", ratio events hops, "events/hop");
          ("engine.fired_per_push", ratio events pushes, "events/push");
          ("engine.pool_hit_frac", ratio pool_hits (pool_hits +. pool_misses), "frac");
          ("engine.sched.max_size", fi max_size, "count");
          ("engine.sched.push_ns", 1e9 *. ratio push_s pushes, "ns");
          ("engine.sched.pop_ns", 1e9 *. ratio pop_s pops, "ns");
          ("engine.sched.self_frac", ratio (push_s +. pop_s) wall_b, "frac");
          ("engine.self_frac", self "engine", "frac");
          ("net.pkt_hops", hops, "count");
          ("net.drop_frac", ratio drops (drops +. count "link.enqueues"), "frac");
          ("net.link.self_frac", self "link", "frac");
          ("net.link.ns_per_pkt_hop", 1e9 *. ratio link_s hops, "ns");
          ("net.link.words_per_pkt_hop", ratio link_w hops, "words");
          ("net.node.self_frac", self "node", "frac");
          ("net.node.ns_per_call", 1e9 *. ratio node_s (fi node_n), "ns");
          ("net.node.words_per_call", ratio node_w (fi node_n), "words");
          ("mcast.slots",
           count "flid.slots" +. count "rlm.slots" +. count "rep.slots"
           +. count "oversub.slots", "count");
          ("mcast.level_changes",
           count "flid.level_changes" +. count "rlm.level_changes"
           +. count "rep.switches" +. count "oversub.level_changes", "count");
          ("mcast.flid.self_frac", self "flid", "frac");
          ("sigma.keys_checked", checked, "count");
          ("sigma.accept_frac", ratio accepted checked, "frac");
          ("sigma.self_frac", self "sigma", "frac");
          ("sigma.ns_per_call", 1e9 *. ratio sigma_s (fi sigma_n), "ns");
          ("attack.self_frac", self "attack", "frac");
          ("runner.cell_p50_s", median cell_walls, "s");
          ("runner.cell_max_s", List.fold_left Float.max 0. cell_walls, "s");
          ("runner.busy_frac", ratio (walls a) (fi w.domains *. a.wall_s), "frac");
          ("workload.validate_s", median validate_s, "s");
          ("workload.topo_gen_s", median topo_s, "s");
          ("obs.overhead_x", obs_overhead, "x");
          ("obs.spans_per_event", ratio spans events, "spans/event");
          ("gc.promoted_words_per_pkt_hop",
           ratio (sumf (fun (r : Obs.run) -> r.promoted_w) a.runs) hops, "words");
          ("gc.major_collections", fi major, "count");
          ("trace.overhead_x", ratio d.wall_s a.wall_s, "x") ]
  | _ -> print_result tally []);
  tally

(* --- maintenance modes ------------------------------------------------------- *)

let write_digests () =
  let oc = open_out digests_file in
  List.iter
    (fun name ->
      match Workloads.make name ~seed:0 with
      | None -> ()
      | Some w ->
          let p = pass w ~index:0 Obs.untraced Shim.heap in
          List.iter (fun n -> complain "%s: %s: output check failed" name n) p.failures;
          List.iter
            (fun (r : Workloads.record) ->
              Printf.fprintf oc "%s %s %s\n" name r.run r.digest)
            p.records)
    Workloads.names;
  close_out oc;
  0

(* Each workload's simulated outcomes must move with the seed, and seed 0
   must still match the stored digests. *)
let self_test () =
  let stored = load_digests () in
  let ok = ref true in
  List.iter
    (fun name ->
      let pass seed =
        match Workloads.make name ~seed with
        | Some w -> pass w ~index:0 Obs.untraced Shim.heap
        | None -> failwith name
      in
      let p0 = pass 0 and p1 = pass 1 in
      let count f = List.length (List.filter f p0.records) in
      let moved =
        count (fun (r : Workloads.record) ->
            match List.find_opt (fun (x : Workloads.record) -> String.equal x.run r.run) p1.records with
            | Some x -> not (String.equal x.outcome r.outcome)
            | None -> true)
      in
      let matched =
        count (fun (r : Workloads.record) ->
            match List.assoc_opt (name, r.run) stored with
            | Some d -> String.equal d r.digest
            | None -> false)
      in
      let n = List.length p0.records in
      Printf.printf "%-9s seed 0 vs 1: %d/%d outcomes differ; seed 0 vs stored: %d/%d match\n%!"
        name moved n matched n;
      if moved = 0 || matched <> n then ok := false)
    Workloads.names;
  if !ok then 0 else 1

(* Paired passes, bare heap against the heap behind the shim, alternating
   which side runs first. *)
let shim_check (w : Workloads.t) ~pairs =
  let time sched i = (pass w ~index:i Obs.untraced sched).wall_s in
  let bare, shim =
    List.split
      (List.init pairs (fun i ->
           if i mod 2 = 0 then
             let b = time Scheduler.heap i in
             (b, time Shim.heap i)
           else
             let s = time Shim.heap i in
             (time Scheduler.heap i, s)))
  in
  let show label xs =
    let q1, q3 = quartiles xs in
    Printf.printf "%s: median %.4f s, quartiles %.4f..%.4f s\n" label (median xs) q1 q3
  in
  show "bare heap" bare;
  show "shim heap" shim;
  let wins = List.length (List.filter (fun (b, s) -> s < b) (List.combine bare shim)) in
  Printf.printf "shim faster in %d of %d pairs; median ratio shim/bare %.4f\n" wins pairs
    (median (List.map2 (fun b s -> s /. b) bare shim));
  0

(* --- command line ---------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mode : string;
  pairs : int;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe --write-digests | --self-test\n\
    \       main.exe --shim-check --workload W --pairs N";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = String.equal v "1" } rest
    | "--pairs" :: v :: rest -> go { a with pairs = int_of_string v } rest
    | ("--write-digests" | "--self-test" | "--shim-check") as m :: rest ->
        go { a with mode = m } rest
    | _ -> usage ()
  in
  try
    go
      { workload = ""; seed = 0; seconds = 10.; trace = false; mode = "run"; pairs = 10 }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

let () =
  let a = parse Sys.argv in
  Workloads.install_hooks ();
  let workload () =
    match Workloads.make a.workload ~seed:a.seed with
    | Some w -> w
    | None ->
        complain "unknown workload %S (one of: %s)" a.workload
          (String.concat ", " Workloads.names);
        exit 2
  in
  let code =
    match a.mode with
    | "--write-digests" -> write_digests ()
    | "--self-test" -> self_test ()
    | "--shim-check" -> shim_check (workload ()) ~pairs:a.pairs
    | _ ->
        let w = workload () in
        let t =
          if a.trace then traced w ~seed:a.seed
          else measure w ~seed:a.seed ~seconds:a.seconds
        in
        if t.failed = 0 && t.attempted > 0 then 0 else 1
  in
  exit code
