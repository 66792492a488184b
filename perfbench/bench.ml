(* The repository benchmark's measuring program. One invocation runs one
   workload in a fresh single-domain process:

     bench.exe WORKLOAD --seed N --seconds S --trace 0|1 [--spans PATH]

   A workload is a number of cycles of the system's whole path, each on
   its own inputs: set-up (catalog, SoA trace, week-0 demand, instance),
   one cold placement solve, a direct and a faulted playout of the trace
   over that placement, and the online daemon's horizon of replans. The
   run reports the mean over its cycles, so that both the host's speed
   swings and the spread between inputs average out. Every output
   is checked by code other than the code that produced it; a failed
   check is a failed operation. The last stdout line is one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). *)

module G = Vod_topology.Graph
module I = Vod_placement.Instance
module Sol = Vod_placement.Solution
module Solve = Vod_placement.Solve
module Loop = Vod_serve.Loop
module Replan = Vod_serve.Replan
module Daemon = Vod_serve.Daemon
module M = Vod_sim.Metrics
module Obs = Vod_obs.Obs

let day_s = Vod_workload.Trace.seconds_per_day

type spec = {
  name : string;
  topology : unit -> G.t;
  videos : int;  (* catalog size of each cycle *)
  daily_per_video : float;  (* mean requests per video per day *)
  disk_multiple : float;  (* aggregate disk / library size *)
  link_mbps : float;  (* the placement's per-link capacity *)
  playout_mbps : float;  (* the faulted loop's per-link budget; binds *)
  solver : string;
  passes : int;
  budget_gb : float;  (* per-replan migration budget *)
  cycle_s : float;  (* seconds per cycle on a slowed host; sets the cycle count *)
}

(* Why each workload exists is recorded in BENCHMARK.json. *)
let specs =
  [
    {
      name = "backbone-epf";
      topology = (fun () -> Vod_topology.Topologies.backbone55 ());
      videos = 40;
      daily_per_video = 900.0;
      disk_multiple = 5.0;
      link_mbps = 3000.0;
      playout_mbps = 3000.0;
      solver = "epf";
      passes = 6;
      budget_gb = 20.0;
      cycle_s = 5.5;
    };
    {
      name = "ebone-benders";
      topology = (fun () -> Vod_topology.Topologies.ebone ());
      videos = 30;
      daily_per_video = 600.0;
      disk_multiple = 3.0;
      link_mbps = 1000.0;
      playout_mbps = 500.0;
      solver = "benders";
      passes = 30;
      budget_gb = 10.0;
      cycle_s = 3.0;
    };
  ]

(* Shared by both workloads: trace length (the daemon replans from day
   7 on), the days the most populous VHO is dark (the second outage
   starts after day 7, so the daemon replans at the fault as well as at
   its periodic tick) and the periodic replan cadence. *)
let days = 9
let outages = [ (2.0, 4.0); (7.5, 9.0) ]
let cadence_h = 48.0
let cache_frac = 0.05
let n_windows = 2
let window_s = 3600.0
let min_cycles = 3

(* ---- checks ---------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check what problems =
  incr attempted;
  if problems <> [] then begin
    incr failed;
    List.iter (fun p -> Printf.eprintf "check failed: %s: %s\n%!" what p) problems
  end

let expect cond fmt = Printf.ksprintf (fun s -> if cond then [] else [ s ]) fmt

(* ---- set-up ---------------------------------------------------------- *)

type world = {
  spec : spec;
  graph : G.t;
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  store : Vod_workload.Trace_soa.t;
  trace : Vod_workload.Trace.t;  (* the boxed form the daemon serves *)
  inst : I.t;
  disk_gb : float array;  (* raw per-VHO disk; the instance pins 95 % *)
  params : Vod_epf.Engine.params;
}

(* The topology and each cycle's catalog are part of the workload's
   definition; the seed draws the request traces. *)
let setup spec ~seed ~cycle =
  Spans.span "setup" @@ fun () ->
  let graph = spec.topology () in
  let paths = Vod_topology.Paths.compute graph in
  let catalog =
    Spans.span "catalog" (fun () ->
        Vod_workload.Catalog.generate
          (Vod_workload.Catalog.default_params ~n:spec.videos ~days
             ~seed:(cycle + 1)))
  in
  let store =
    Spans.span "tracegen" (fun () ->
        Vod_workload.Tracegen.generate_soa ~jobs:1
          (Vod_workload.Tracegen.default_params ~catalog
             ~populations:graph.G.populations
             ~mean_daily_requests:(spec.daily_per_video *. float_of_int spec.videos)
             ~seed:((seed * 1000) + cycle)))
  in
  let n_vhos = G.n_nodes graph in
  let demand =
    Spans.span "demand" (fun () ->
        let lo, hi = Vod_workload.Trace_soa.between_days store ~day_lo:0 ~day_hi:7 in
        Vod_workload.Demand.of_soa catalog ~n_vhos ~day0:0 ~days:7 ~n_windows
          ~window_s store ~lo ~hi)
  in
  let disk_gb =
    I.uniform_disk
      ~total_gb:(spec.disk_multiple *. Vod_workload.Catalog.total_size_gb catalog)
      n_vhos
  in
  let inst =
    Spans.span "instance" (fun () ->
        I.create ~graph ~catalog ~demand
          ~disk_gb:(Array.map (fun d -> d *. (1.0 -. cache_frac)) disk_gb)
          ~link_capacity_mbps:(I.uniform_links graph spec.link_mbps)
          ())
  in
  let trace = Spans.span "to_trace" (fun () -> Vod_workload.Trace_soa.to_trace store) in
  let params =
    { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = spec.passes; jobs = 1 }
  in
  { spec; graph; paths; catalog; store; trace; inst; disk_gb; params }

let n_requests w = Vod_workload.Trace_soa.length w.store

(* ---- stages ---------------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let solve w =
  timed (fun () ->
      Spans.span "solve" (fun () ->
          Vod_placement.Backend.solve ~solver:w.spec.solver ~params:w.params w.inst))

let fleet w (sol : Sol.t) =
  Spans.span "fleet" (fun () ->
      Vod_cache.Fleet.mip ~solution:sol ~paths:w.paths ~catalog:w.catalog
        ~cache_gb:(Array.map (fun d -> d *. cache_frac) w.disk_gb))

let resil w =
  let vho = (Vod_topology.Topologies.top_population_nodes w.graph 1).(0) in
  Vod_resil.Playout.config
    ~schedule:
      (Vod_resil.Event.create
         (List.concat_map
            (fun (d0, d1) ->
              [
                { Vod_resil.Event.time_s = d0 *. day_s; kind = Vod_resil.Event.Vho_down vho };
                { Vod_resil.Event.time_s = d1 *. day_s; kind = Vod_resil.Event.Vho_up vho };
              ])
            outages))
    ~link_capacity_mbps:w.spec.playout_mbps ()

(* [Loop.run_soa] with the metrics and the loop built before the clock
   starts, so that the timed region is request processing. *)
let playout w (sol : Sol.t) ~span ?resil () =
  let fleet = fleet w sol in
  let metrics =
    M.create ~n_links:(G.n_links w.graph) ~n_vhos:(G.n_nodes w.graph)
      ~horizon_s:(float_of_int days *. day_s) ()
  in
  let loop = Loop.create ~graph:w.graph ~paths:w.paths ~catalog:w.catalog ~fleet ?resil () in
  timed (fun () ->
      Spans.span span (fun () ->
          Fun.protect
            ~finally:(fun () -> Loop.finish loop metrics)
            (fun () -> Loop.play_soa loop metrics w.store ~lo:0 ~hi:(n_requests w));
          metrics))

let problem w =
  {
    Replan.graph = w.graph;
    catalog = w.catalog;
    disk_gb = w.disk_gb;
    link_capacity_mbps = w.spec.link_mbps;
    cache_frac;
    n_windows;
    window_s;
    engine = w.params;
    solver = w.spec.solver;
  }

let daemon w (boot : Solve.report) =
  let cfg =
    {
      Daemon.default_config with
      Daemon.update_every_s = cadence_h *. 3600.0;
      migration_budget_gb = w.spec.budget_gb;
    }
  in
  timed (fun () ->
      Spans.span "daemon" (fun () ->
          Horizon.run ~graph:w.graph ~paths:w.paths ~catalog:w.catalog
            ~trace:w.trace ~problem:(problem w) ~resil:(resil w) ~boot cfg))

(* ---- output checks --------------------------------------------------- *)

(* Served + rejected = attempted = trace length. *)
let conservation (m : M.t) ~n =
  let rej = m.M.deg.M.rejections in
  expect (m.M.requests = n) "attempted %d, trace has %d" m.M.requests n
  @ expect
      (m.M.local_served + m.M.remote_served + rej = m.M.requests)
      "served %d + rejected %d <> attempted %d"
      (m.M.local_served + m.M.remote_served)
      rej m.M.requests

let check_daemon w (r : Horizon.result) =
  check "daemon serving" (conservation r.Horizon.metrics ~n:(n_requests w));
  check "daemon replans" (expect (r.Horizon.replans <> []) "no replan in the horizon");
  let pb = problem w in
  List.iter
    (fun (rp : Horizon.replan) ->
      check
        (Printf.sprintf "replan at %.0f s (%s)" rp.Horizon.t_s rp.trigger)
        (expect
           (rp.Horizon.moved_gb <= w.spec.budget_gb *. (1.0 +. 1e-12))
           "moved %.3f GB over the %.3f GB budget" rp.Horizon.moved_gb
           w.spec.budget_gb
        @ snd (Audit.check (Horizon.instance pb rp) rp.report.Solve.solution)))
    r.Horizon.replans

(* The busiest link's peak 5-minute load of each day, averaged over the
   days: the paper's peak link load, measured so that it does not rest on
   the single busiest bin of the whole trace. *)
let daily_peak_mbps (m : M.t) =
  let series = M.peak_series m in
  let per_day = int_of_float (day_s /. m.M.bin_s) in
  let peak d = Array.fold_left Float.max 0.0 (Array.sub series (d * per_day) per_day) in
  List.fold_left (fun acc d -> acc +. peak d) 0.0 (List.init days Fun.id)
  /. float_of_int days

(* ---- one cycle ------------------------------------------------------- *)

type sample = {
  setup_s : float;
  solve_s : float;
  cost : float;
  peak_use : float;
  lb_gap : float;
  requests : float;
  direct_s : float;
  faulted_s : float;
  local_fraction : float;
  gb_hops : float;
  peak_link_mbps : float;
  rejection_rate : float;
  latencies : float list;
  daemon_s : float;
  migration_gb : float;
}

(* One cycle's figures, plus the faulted playout's metrics and the
   daemon's replans for the traced run. *)
let cycle spec ~seed ~cycle =
  let w, setup_s = timed (fun () -> setup spec ~seed ~cycle) in
  let report, solve_s = solve w in
  let sol = report.Solve.solution in
  let audit, problems = Audit.check w.inst sol in
  check "cold solve audit" problems;
  let n = n_requests w in
  let direct, direct_s = playout w sol ~span:"serve_direct" () in
  check "direct playout"
    (conservation direct ~n
    @ expect (direct.M.deg.M.rejections = 0) "direct loop rejected %d"
        direct.M.deg.M.rejections);
  let faulted, faulted_s = playout w sol ~span:"serve_faulted" ~resil:(resil w) () in
  check "faulted playout" (conservation faulted ~n);
  let d, daemon_s = daemon w report in
  check_daemon w d;
  let replans = d.Horizon.replans in
  let peak_link_mbps = daily_peak_mbps direct in
  Printf.eprintf
    "cycle %d: setup %.4f s, solve %.4f s, direct %.4f s, faulted %.4f s, daemon %.4f s, peak link %.1f Mb/s, replans%s\n%!"
    cycle setup_s solve_s direct_s faulted_s daemon_s peak_link_mbps
    (String.concat "" (List.map (fun rp -> Printf.sprintf " %.4f" rp.Horizon.latency_s) replans));
  ( {
      setup_s;
      solve_s;
      cost = sol.Sol.objective;
      peak_use = audit.Audit.peak_use;
      lb_gap = (sol.Sol.objective -. sol.Sol.lower_bound) /. sol.Sol.lower_bound;
      requests = float_of_int n;
      direct_s;
      faulted_s;
      local_fraction = M.local_fraction direct;
      gb_hops = direct.M.total_gb_hops;
      peak_link_mbps;
      rejection_rate = M.rejection_rate faulted;
      latencies = List.map (fun rp -> rp.Horizon.latency_s) replans;
      daemon_s;
      migration_gb = List.fold_left (fun acc rp -> acc +. rp.Horizon.moved_gb) 0.0 replans;
    },
    faulted,
    replans )

(* ---- statistics and output ------------------------------------------ *)

(* Linear interpolation between order statistics. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let print_result metrics =
  check "finite metrics"
    (List.filter_map
       (fun (name, v, _) ->
         if Float.is_finite v then None else Some (Printf.sprintf "%s = %f" name v))
       metrics);
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name
             (if Float.is_finite v then v else 0.0)
             unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed body

(* ---- one measured run (--trace 0) ------------------------------------ *)

let measure spec ~seed ~seconds =
  let k = max min_cycles (int_of_float (Float.round (seconds /. spec.cycle_s))) in
  let samples =
    List.init k (fun c ->
        (* Each cycle starts from a collected heap, so that the previous
           cycle's garbage does not add to this one's footprint. *)
        Gc.full_major ();
        let s, _, _ = cycle spec ~seed ~cycle:c in
        s)
  in
  (* The cycles are a fixed set of unlike inputs, so a stage's time is
     its mean over them (a rate is total requests over total time): a
     median would jump between unlike cycles as the host's speed
     reorders them, while the mean spreads a slow spell over the whole
     run. Set-up is alike in every cycle and takes the median. A cycle's
     results are exact for its inputs and take the mean too. *)
  let avg f = mean (List.map f samples) in
  let rate f = avg (fun s -> s.requests) /. avg f in
  let latencies = List.concat_map (fun s -> s.latencies) samples in
  print_result
    [
      ("setup_s", median (List.map (fun s -> s.setup_s) samples), "s");
      ("solve_s", avg (fun s -> s.solve_s), "s");
      ("mip_cost", avg (fun s -> s.cost), "GB.hop");
      ("mip_peak_use", avg (fun s -> s.peak_use), "ratio");
      ("lb_gap", avg (fun s -> s.lb_gap), "ratio");
      ("serve_rps", rate (fun s -> s.direct_s), "req/s");
      ("failover_rps", rate (fun s -> s.faulted_s), "req/s");
      ("local_fraction", avg (fun s -> s.local_fraction), "ratio");
      ("gb_hops", avg (fun s -> s.gb_hops), "GB.hop");
      ("peak_link_mbps", avg (fun s -> s.peak_link_mbps), "Mb/s");
      ("rejection_rate", avg (fun s -> s.rejection_rate), "ratio");
      ("replan_p50_s", median latencies, "s");
      ("replan_p75_s", quantile latencies 0.75, "s");
      ("daemon_s", avg (fun s -> s.daemon_s), "s");
      ("migration_gb", avg (fun s -> s.migration_gb), "GB");
    ]

(* ---- the traced run (--trace 1) -------------------------------------- *)

let histogram reg name =
  match Obs.read reg name with
  | Some (Obs.Histogram { count; sum; _ }) -> (float_of_int count, sum)
  | Some _ | None -> (0.0, 0.0)

(* The first cycle untraced, then with the spans and an Obs registry
   on, then untraced again; per-layer figures come from the traced pass,
   and the overhead compares it with the mean of the untraced passes
   around it, so that first-pass warm-up does not favour either side. *)
let traced spec ~seed ~spans_path =
  let untraced () =
    Gc.full_major ();
    snd (timed (fun () -> cycle spec ~seed ~cycle:0))
  in
  let before_s = untraced () in
  Gc.full_major ();
  let reg = Obs.create () in
  let gc0 = Gc.quick_stat () in
  Spans.enabled := true;
  let (_, faulted, replans), traced_s =
    Obs.with_run reg (fun () -> timed (fun () -> cycle spec ~seed ~cycle:0))
  in
  Spans.enabled := false;
  let gc1 = Gc.quick_stat () in
  let untraced_s = (before_s +. untraced ()) /. 2.0 in
  let phase name = snd (histogram reg ("phase/solve/" ^ name ^ "_seconds")) in
  let n = float_of_int faulted.M.requests in
  let mw name = Spans.total_words name /. 1e6 in
  let passes, pass_s = histogram reg "phase/solve/engine/pass_seconds" in
  let lb_s = phase "engine/pass/lb" in
  let cuts, cuts_s = histogram reg "phase/solve/master/cuts_seconds" in
  let deg = faulted.M.deg in
  let metrics =
    [
      ("workload.tracegen_s", Spans.total_s "tracegen", "s");
      ("workload.tracegen_alloc_mw", mw "tracegen", "Mwords");
      ("workload.demand_s", Spans.total_s "demand", "s");
      ("workload.estimate_s", Spans.total_s "estimate", "s");
      ("placement.instance_s", Spans.total_s "instance", "s");
      ("placement.blocks_s", phase "blocks", "s");
      ("placement.warm_points_s", phase "warm_points", "s");
      ("placement.solve_alloc_mw", mw "solve", "Mwords");
      ("epf.passes", passes, "count");
      ("epf.init_s", phase "engine/init", "s");
      ("epf.pass_s", pass_s -. lb_s, "s");
      ("epf.lb_s", lb_s, "s");
      ("epf.round_s", phase "engine/round", "s");
      ("epf.polish_s", phase "engine/polish", "s");
      ("epf.final_lb_s", phase "engine/final_lb", "s");
      ("decomp.passes", cuts, "count");
      ("decomp.cuts_s", cuts_s, "s");
      ("decomp.rmp_s", phase "master/rmp", "s");
      ("decomp.lb_s", phase "master/lb", "s");
      ("decomp.round_s", phase "master/round", "s");
      ("cache.fleet_build_s", Spans.total_s "fleet", "s");
      ("serve.direct_s", Spans.total_s "serve_direct", "s");
      ("serve.direct_alloc_words_per_req", Spans.total_words "serve_direct" /. n, "words/req");
      ("serve.faulted_s", Spans.total_s "serve_faulted", "s");
      ("serve.faulted_alloc_words_per_req", Spans.total_words "serve_faulted" /. n, "words/req");
      ("serve.failovers", float_of_int deg.M.failovers, "count");
      ("serve.rejections", float_of_int deg.M.rejections, "count");
      ("serve.restrict_s", Spans.total_s "restrict", "s");
      ("serve.replans", float_of_int (List.length replans), "count");
      ( "serve.deltas_deferred",
        float_of_int (List.fold_left (fun acc rp -> acc + rp.Horizon.deferred) 0 replans),
        "count" );
      ("gc.top_heap_mb", float_of_int gc1.Gc.top_heap_words *. 8.0 /. 1048576.0, "MB");
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
      ("obs.tracing_overhead", traced_s /. untraced_s, "ratio");
    ]
  in
  (* Wall-clock readings are times; every other figure is an exact count
     that repeats for a given seed. *)
  let kinds =
    String.concat ","
      (List.map
         (fun (name, _, unit) ->
           Printf.sprintf "%S:%S" name
             (if unit = "s" || name = "obs.tracing_overhead" then "time" else "exact"))
         metrics)
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "{\"workload\":%S,\"seed\":%d,\"kinds\":{%s},\"spans\":%s,\"obs\":%s}\n"
        spec.name seed kinds (Spans.to_json ()) (Obs.to_json reg);
      close_out oc)
    spans_path;
  print_result metrics

(* ---- command line ---------------------------------------------------- *)

let () =
  let usage () =
    prerr_endline "usage: bench.exe WORKLOAD --seed N --seconds S --trace 0|1 [--spans PATH]";
    exit 2
  in
  let rec parse acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((flag, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let name, opts =
    match List.tl (Array.to_list Sys.argv) with
    | name :: rest -> (name, parse [] rest)
    | [] -> usage ()
  in
  let int_opt k =
    match Option.bind (List.assoc_opt k opts) int_of_string_opt with
    | Some i -> i
    | None -> usage ()
  in
  let spec =
    match List.find_opt (fun s -> s.name = name) specs with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  let seed = int_opt "--seed" and seconds = float_of_int (int_opt "--seconds") in
  Vod_util.Pool.set_default_jobs 1;
  match int_opt "--trace" with
  | 0 -> measure spec ~seed ~seconds
  | 1 -> traced spec ~seed ~spans_path:(List.assoc_opt "--spans" opts)
  | _ -> usage ()
