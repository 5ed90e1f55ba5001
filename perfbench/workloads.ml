open Mcc_core
module Scheduler = Mcc_engine.Scheduler
module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Matrix = Mcc_attack.Matrix
module Schema = Mcc_workload.Schema
module Topo_gen = Mcc_workload.Topo_gen

type record = { run : string; digest : string; outcome : string }

type pass = {
  records : record list;
  runs : Obs.run list;
  wall_s : float;
  counters : (string * int) list;
  failures : string list;
  plain_s : float;
  instrumented_s : float;
}

type t = {
  name : string;
  domains : int;
  runs_per_pass : int;
  pass : index:int -> Obs.mode -> Scheduler.backend -> pass;
}

(* --- inputs from the seed ------------------------------------------------ *)

let shift ~seed base = base + (7919 * seed)

(* Most experiments feed their seed only to key nonces, so their outcome
   does not move with it.  Shifting attack onsets, burst windows and join
   times by up to 5% of the horizon makes those seeds different runs too. *)
let onset ~seed ~duration at =
  at +. (float_of_int (shift ~seed 0 land 1023) /. 1024. *. duration /. 20.)

let reseed ~seed (spec : Spec.t) : Spec.t =
  let s = shift ~seed in
  let at duration t = onset ~seed ~duration t in
  match spec with
  | Attack p ->
      Attack { p with seed = s p.seed; attack_at = at p.duration p.attack_at }
  | Sweep p -> Sweep { p with seed = s p.seed }
  | Responsiveness p ->
      Responsiveness
        { p with
          seed = s p.seed;
          burst_start = at p.duration p.burst_start;
          burst_stop = at p.duration p.burst_stop }
  | Rtt p -> Rtt { p with seed = s p.seed }
  | Convergence p ->
      Convergence
        { p with seed = s p.seed; join_times = List.map (at p.duration) p.join_times }
  | Overhead p -> Overhead { p with seed = s p.seed }
  | Partial p ->
      Partial { p with seed = s p.seed; attack_at = at p.duration p.attack_at }
  | Adversary p ->
      Adversary { p with seed = s p.seed; attack_at = at p.duration p.attack_at }
  | Workload p -> Workload { p with seed = s p.seed }

let paper_scale = 1. /. 32.

(* A sixth of the catalogue's 120 s horizon.  Every verdict was checked
   to hold at it for seeds 0-13 and 42 with the onset at 7 s, and for
   onsets from 7 to 8 s: plain and delta cells breach, defended cells
   contain. *)
let matrix_duration = 20.
let matrix_attack_at = 7.
let matrix_jobs = 2

let matrix_entries ~seed ?attacks ?protocols ?defences () =
  Matrix.entries
    ~seed:(shift ~seed Spec.default_adversary.seed)
    ~duration:matrix_duration
    ~attack_at:(onset ~seed ~duration:matrix_duration matrix_attack_at)
    ?attacks
    ?protocols ?defences ()

(* Shaped like workloads/fat_tree_flash_crowd.json (crowd at a quarter
   of the horizon, leaving a third of it later), scaled from k=4 and
   6 + 8 receivers to k=8 and 40 + 60. *)
let fat_tree_doc ~seed =
  Printf.sprintf
    {|{"version":1,"name":"fat-tree-flash-crowd-k8","seed":%d,"duration":90,"topology":{"kind":"fat_tree","k":8,"core_rate_bps":2000000},"protocol":"flid","defence":"delta+sigma+ecn","receivers":40,"churn":{"kind":"flash_crowd","at":22.5,"arrivals":60,"leave_after":30}}|}
    (shift ~seed 43)

let profiled_sample_dt = 0.5

(* --- records -------------------------------------------------------------- *)

(* The outcome leaves out the spec and the event count, so it can be
   compared across seeds and between a sampled run and its plain twin:
   sampling adds its own timer events. *)
let record ?run (e : Runner.entry) ~result ~metrics ~series =
  let hash ~name ~group ~spec ~metrics =
    let b = Buffer.create 4096 in
    Sink.emit
      (Sink.jsonl (Buffer.add_string b))
      { Sink.name; group; spec; result; metrics; series; profile = None };
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  { run = Option.value run ~default:e.name;
    digest = hash ~name:e.name ~group:e.group ~spec:e.spec ~metrics;
    outcome =
      hash ~name:"" ~group:"" ~spec:(Spec.Attack Spec.default_attack)
        ~metrics:
          (List.filter
             (fun (n, _) -> not (String.equal n "engine.events"))
             metrics) }

let sum_counters snapshots =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, v) ->
         match v with
         | Metrics.Counter n ->
             let old = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
             Hashtbl.replace tbl name (old + n)
         | Metrics.Gauge _ | Metrics.Histogram _ -> ()))
    snapshots;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counter p name = Option.value (List.assoc_opt name p.counters) ~default:0

let with_profile_stats (run : Obs.run) (profile : Profile.t) =
  match run.sched with
  | Some _ -> run
  | None -> { run with sched = profile.Profile.sched_stats }

let timed_pass f =
  Obs.span "pass" (fun id ->
      Obs.set_parent id;
      Profile.with_wall_clock f)

let simple_pass ~records ~runs ~snapshots ~wall_s ~failures =
  { records; runs; wall_s; counters = sum_counters snapshots; failures;
    plain_s = 0.; instrumented_s = 0. }

(* --- matrix cells observed inside their worker domain --------------------- *)

let cell_mode : Obs.mode option Atomic.t = Atomic.make None
let cell_runs : Obs.run Obs.bag = Obs.bag ()

let cell_name (p : Spec.adversary_params) =
  Printf.sprintf "matrix-%s-%s-%s" (Spec.attack_str p.attack)
    (Spec.protocol_str p.protocol)
    (Spec.defence_str p.defence)

let install_hooks () =
  Experiments.set_adversary_impl (fun p ->
      match Atomic.get cell_mode with
      | None -> Matrix.run_cell p
      | Some mode ->
          let r, run =
            Obs.observe mode ~name:(cell_name p) (fun () -> Matrix.run_cell p)
          in
          Obs.add cell_runs run;
          r);
  Experiments.set_workload_impl (fun p ->
      Obs.span "build" (fun _ -> Mcc_workload.Build.run p))

(* --- serial passes over Runner --------------------------------------------- *)

let run_serial mode sched entries =
  let one (e : Runner.entry) =
    let (result, metrics, series, profile), run =
      Obs.observe mode ~name:e.name (fun () ->
          Runner.run_spec_profiled ~sched e.spec)
    in
    ( record e ~result ~metrics ~series,
      with_profile_stats run profile,
      metrics )
  in
  let out, wall_s = timed_pass (fun () -> List.map one entries) in
  let records = List.map (fun (r, _, _) -> r) out in
  let runs = List.map (fun (_, r, _) -> r) out in
  simple_pass ~records ~runs ~snapshots:(List.map (fun (_, _, m) -> m) out)
    ~wall_s ~failures:[]

let paper ~seed =
  let entries =
    List.map
      (fun (e : Runner.entry) ->
        { e with spec = reseed ~seed (Spec.scale_time e.spec ~factor:paper_scale) })
      (Runner.all ())
  in
  { name = "paper"; domains = 1; runs_per_pass = List.length entries;
    pass = (fun ~index:_ mode sched -> run_serial mode sched entries) }

(* --- matrix ---------------------------------------------------------------- *)

let enforcing (d : Spec.defence) =
  match d with
  | Delta_sigma | Delta_sigma_ecn -> true
  | Undefended | Delta_only -> false

(* The paper's pattern: without an enforcing edge the attack is never
   contained; with DELTA+SIGMA it always is. *)
let verdict_holds (row : Runner.row) =
  match (row.entry.spec, row.result) with
  | Adversary p, Experiments.Adversary r ->
      Bool.equal (enforcing p.defence) (Option.is_some r.containment_s)
  | _ -> false

let matrix ~seed =
  let entries = matrix_entries ~seed () in
  let pass ~index:_ mode sched =
    ignore (Obs.drain cell_runs);
    Atomic.set cell_mode (Some mode);
    let rows, wall_s =
      Fun.protect
        ~finally:(fun () -> Atomic.set cell_mode None)
        (fun () ->
          timed_pass (fun () -> Matrix.run ~jobs:matrix_jobs ~sched entries))
    in
    let records =
      List.map
        (fun (r : Runner.row) ->
          record r.entry ~result:r.result ~metrics:r.metrics ~series:r.series)
        rows
    in
    let failures =
      List.filter_map
        (fun (r : Runner.row) ->
          if verdict_holds r then None else Some r.entry.name)
        rows
    in
    simple_pass ~records ~runs:(Obs.drain cell_runs)
      ~snapshots:(List.map (fun (r : Runner.row) -> r.metrics) rows)
      ~wall_s ~failures
  in
  { name = "matrix"; domains = matrix_jobs; runs_per_pass = List.length entries;
    pass }

(* --- fat-tree --------------------------------------------------------------- *)

let validate doc =
  match Json.of_string doc with
  | Error e -> failwith ("fat-tree document: " ^ e)
  | Ok json -> (
      match Schema.entries_of_json ~ctx:"fat-tree" json with
      | Ok [ e ] -> e
      | Ok _ -> failwith "fat-tree document: expected one run"
      | Error e -> failwith e)

let fat_tree ~seed =
  let doc = fat_tree_doc ~seed in
  let pass ~index:_ mode sched =
    let out, wall_s =
      timed_pass (fun () ->
          Obs.observe mode ~name:"fat-tree" (fun () ->
              let e = Obs.span "schema" (fun _ -> validate doc) in
              (e, Runner.run_spec_profiled ~sched e.spec)))
    in
    let (e, (result, metrics, series, profile)), run = out in
    simple_pass
      ~records:[ record e ~result ~metrics ~series ]
      ~runs:[ with_profile_stats run profile ]
      ~snapshots:[ metrics ] ~wall_s ~failures:[]
  in
  { name = "fat-tree"; domains = 1; runs_per_pass = 1; pass }

let probe_workload_layer ~seed =
  let doc = fat_tree_doc ~seed in
  let p =
    match (validate doc).spec with
    | Workload p -> p
    | _ -> failwith "fat-tree document: not a workload"
  in
  let times name f =
    List.init 5 (fun _ ->
        snd (Profile.with_wall_clock (fun () -> Obs.span name (fun _ -> f ()))))
  in
  ( times "schema" (fun () -> ignore (validate doc)),
    times "topo_gen" (fun () ->
        ignore
          (Topo_gen.build ~ecn:true (Mcc_engine.Sim.create ())
             ~prng:(Mcc_util.Prng.create p.seed) ~spec:p.topology
             ~hosts:p.receivers)) )

(* --- profiled ----------------------------------------------------------------- *)

let profiled ~seed =
  let fig7 =
    match Runner.lookup "fig7" with
    | Some e -> { e with spec = reseed ~seed e.spec }
    | None -> failwith "registry has no fig7"
  in
  let cells =
    matrix_entries ~seed ~attacks:[ Spec.Persistent_inflation ]
      ~protocols:[ Spec.Flid_ds ] ~defences:[ Spec.Delta_sigma ] ()
    @ matrix_entries ~seed ~attacks:[ Spec.Persistent_inflation ]
        ~protocols:[ Spec.Replicated ] ~defences:[ Spec.Delta_sigma_ecn ] ()
  in
  let entries = fig7 :: cells in
  let pass ~index mode sched =
    let plain (e : Runner.entry) () =
      let (result, metrics, _, profile), run =
        Obs.observe mode ~name:(e.name ^ "/plain") (fun () ->
            Runner.run_spec_profiled ~sched e.spec)
      in
      ( record ~run:(e.name ^ "/plain") e ~result ~metrics ~series:[],
        with_profile_stats run profile,
        metrics )
    in
    let instrumented (e : Runner.entry) () =
      let i, run =
        Obs.observe mode ~name:(e.name ^ "/instrumented") (fun () ->
            Runner.run_spec_instrumented ~sched ~sample_dt:profiled_sample_dt
              e.spec)
      in
      ( record ~run:(e.name ^ "/instrumented") e ~result:i.Runner.i_result
          ~metrics:i.i_metrics ~series:[],
        with_profile_stats run i.i_profile,
        i.i_metrics )
    in
    let both e =
      (* Alternate which side runs first so drift does not favour one. *)
      if index mod 2 = 0 then
        let p = plain e () in
        (p, instrumented e ())
      else
        let i = instrumented e () in
        (plain e (), i)
    in
    let out, wall_s = timed_pass (fun () -> List.map both entries) in
    let records, failures =
      List.split
        (List.map
           (fun ((p, _, _), (i, _, _)) ->
             ([ p; i ], if String.equal p.outcome i.outcome then [] else [ i.run ]))
           out)
    in
    let plains = List.map (fun ((_, r, _), _) -> r) out in
    let instrs = List.map (fun (_, (_, r, _)) -> r) out in
    let total = List.fold_left (fun acc (r : Obs.run) -> acc +. r.wall_s) 0. in
    { records = List.concat records;
      runs = plains @ instrs;
      wall_s;
      counters =
        sum_counters
          (List.concat_map (fun ((_, _, m1), (_, _, m2)) -> [ m1; m2 ]) out);
      failures = List.concat failures;
      plain_s = total plains;
      instrumented_s = total instrs }
  in
  { name = "profiled"; domains = 1; runs_per_pass = 2 * List.length entries;
    pass }

let all =
  [ ("paper", paper); ("matrix", matrix); ("fat-tree", fat_tree);
    ("profiled", profiled) ]

let names = List.map fst all
let make name ~seed = Option.map (fun f -> f ~seed) (List.assoc_opt name all)
