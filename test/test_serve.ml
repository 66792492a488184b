(* Tests for lib/serve: the unified serving loop must reproduce both
   legacy engines byte-for-byte (fault-free ≡ Vod_sim.Sim, faulted ≡
   Vod_resil.Playout), the batch pipeline's MIP scheme must be the
   online daemon's unbudgeted, cold, day-aligned preset, and the
   migration-budget restriction must respect its budget while keeping
   per-video copy sets atomic. *)

module E = Vod_resil.Event
module M = Vod_sim.Metrics
module P = Vod_core.Pipeline

let ev time_s kind = { E.time_s; kind }

(* ---------- loop vs legacy engines ---------- *)

let ring4 () =
  Vod_topology.Graph.create ~name:"ring4" ~n:4
    ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
    ~populations:[| 2.0; 1.0; 1.0; 1.0 |]

let sim_world () =
  let g = ring4 () in
  let paths = Vod_topology.Paths.compute g in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:30 ~days:7 ~seed:3)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:g.Vod_topology.Graph.populations ~mean_daily_requests:400.0
         ~seed:4)
  in
  (g, paths, catalog, trace)

let lru_fleet paths catalog =
  Vod_cache.Fleet.random_single ~paths ~catalog
    ~disk_gb:[| 15.0; 15.0; 15.0; 15.0 |] ~policy:Vod_cache.Cache.Lru ~seed:5

let check_metrics_equal (a : M.t) (b : M.t) =
  Alcotest.(check int) "requests" a.M.requests b.M.requests;
  Alcotest.(check int) "local" a.M.local_served b.M.local_served;
  Alcotest.(check int) "hits" a.M.cache_hits b.M.cache_hits;
  Alcotest.(check int) "remote" a.M.remote_served b.M.remote_served;
  Alcotest.(check int) "not cachable" a.M.not_cachable b.M.not_cachable;
  Alcotest.(check bool) "gb_hops bit-equal" true
    (a.M.total_gb_hops = b.M.total_gb_hops);
  Alcotest.(check bool) "gb_remote bit-equal" true
    (a.M.total_gb_remote = b.M.total_gb_remote);
  Alcotest.(check bool) "per-vho requests" true
    (a.M.per_vho_requests = b.M.per_vho_requests);
  Alcotest.(check bool) "per-vho local" true (a.M.per_vho_local = b.M.per_vho_local);
  Alcotest.(check bool) "link-load matrix byte-equal" true
    (a.M.link_load = b.M.link_load)

(* Fault-free: the loop's direct configuration is the legacy engine. *)
let loop_matches_legacy_sim () =
  let g, paths, catalog, trace = sim_world () in
  let record_from = 1.0 *. Vod_workload.Trace.seconds_per_day in
  let legacy =
    Vod_sim.Sim.run ~graph:g ~paths ~catalog ~fleet:(lru_fleet paths catalog)
      ~trace ~record_from ()
  in
  let unified, windows =
    Vod_serve.Loop.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace ~record_from ()
  in
  check_metrics_equal legacy unified;
  Alcotest.(check int) "no rejections" 0 unified.M.deg.M.rejections;
  Alcotest.(check bool) "no windows in direct mode" true (windows = [])

(* VHO 0 dark for 30 % of the trace, a 2x surge at VHO 1 for 20 %, and a
   binding per-link budget with an origin to fail over to. *)
let faulted_config (trace : Vod_workload.Trace.t) =
  let horizon = float_of_int trace.Vod_workload.Trace.days *. 86_400.0 in
  let schedule =
    E.create
      [
        ev (0.3 *. horizon) (E.Vho_down 0);
        ev (0.5 *. horizon) (E.Surge_start { vho = 1; factor = 2.0 });
        ev (0.6 *. horizon) (E.Vho_up 0);
        ev (0.7 *. horizon) (E.Surge_end 1);
      ]
  in
  Vod_resil.Playout.config ~schedule ~link_capacity_mbps:120.0 ~origin:2 ()

(* Faulted: the loop's failover configuration is Vod_resil.Playout —
   same metrics, same degradation counters, same event windows. *)
let loop_matches_resil_playout () =
  let g, paths, catalog, trace = sim_world () in
  let config = faulted_config trace in
  let resil, resil_windows =
    Vod_resil.Playout.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace config
  in
  let unified, unified_windows =
    Vod_serve.Loop.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace ~resil:config ()
  in
  check_metrics_equal resil unified;
  let da = resil.M.deg and db = unified.M.deg in
  Alcotest.(check int) "rejections" da.M.rejections db.M.rejections;
  Alcotest.(check int) "vho down" da.M.rejected_vho_down db.M.rejected_vho_down;
  Alcotest.(check int) "no replica" da.M.rejected_no_replica db.M.rejected_no_replica;
  Alcotest.(check int) "unreachable" da.M.rejected_unreachable
    db.M.rejected_unreachable;
  Alcotest.(check int) "no capacity" da.M.rejected_no_capacity
    db.M.rejected_no_capacity;
  Alcotest.(check int) "failovers" da.M.failovers db.M.failovers;
  Alcotest.(check int) "extra hops" da.M.failover_extra_hops
    db.M.failover_extra_hops;
  Alcotest.(check int) "origin served" da.M.origin_served db.M.origin_served;
  Alcotest.(check bool) "saturation bit-equal" true
    (da.M.link_saturated_s = db.M.link_saturated_s);
  Alcotest.(check bool) "faulted something" true (da.M.rejections > 0);
  Alcotest.(check int) "window count"
    (List.length resil_windows)
    (List.length unified_windows);
  List.iter2
    (fun (a : Vod_resil.Playout.window) (b : Vod_resil.Playout.window) ->
      Alcotest.(check string) "trigger" a.Vod_resil.Playout.trigger
        b.Vod_resil.Playout.trigger;
      Alcotest.(check int) "window requests" a.Vod_resil.Playout.requests
        b.Vod_resil.Playout.requests;
      Alcotest.(check int) "window rejections" a.Vod_resil.Playout.rejections
        b.Vod_resil.Playout.rejections;
      Alcotest.(check int) "window failovers" a.Vod_resil.Playout.failovers
        b.Vod_resil.Playout.failovers;
      Alcotest.(check bool) "window bounds bit-equal" true
        (a.Vod_resil.Playout.t0_s = b.Vod_resil.Playout.t0_s
        && a.Vod_resil.Playout.t1_s = b.Vod_resil.Playout.t1_s))
    resil_windows unified_windows

(* ---------- daemon vs batch pipeline ---------- *)

let daemon_scenario () =
  let graph =
    Vod_topology.Graph.create ~name:"ring6" ~n:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3) ]
      ~populations:[| 3.0; 1.0; 2.0; 1.0; 1.0; 1.0 |]
  in
  Vod_core.Scenario.make ~days:10 ~requests_per_video_per_day:8.0 ~seed:13
    ~graph ~n_videos:40 ()

let fast_mip =
  {
    P.default_mip with
    P.engine = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 15 };
  }

(* The preset contract: [Pipeline.run_mip] at update_days = 1 is the
   daemon with an infinite budget, daily day-aligned boundaries, cold
   solves and no fault reaction, bit for bit; its migration report
   agrees with the daemon's own per-replan GB. *)
let daemon_matches_daily_batch () =
  let sc = daemon_scenario () in
  let cfg =
    {
      (P.default_config ~scenario:sc
         ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.5)
         ~link_capacity_mbps:500.0)
      with
      P.warmup_days = 2;
    }
  in
  let mip = { fast_mip with P.update_days = 1 } in
  let batch = P.run cfg (P.Mip mip) in
  let daemon_cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.estimator = mip.P.estimator;
      Vod_serve.Daemon.update_every_s = Vod_workload.Trace.seconds_per_day;
      Vod_serve.Daemon.warm_start = false;
      Vod_serve.Daemon.react_to_faults = false;
    }
  in
  let d =
    Vod_serve.Daemon.run ~graph:sc.Vod_core.Scenario.graph
      ~paths:sc.Vod_core.Scenario.paths ~catalog:sc.Vod_core.Scenario.catalog
      ~trace:sc.Vod_core.Scenario.trace
      ~problem:(P.replan_problem cfg mip)
      ~bin_s:cfg.P.bin_s
      ~record_from:
        (float_of_int cfg.P.warmup_days *. Vod_workload.Trace.seconds_per_day)
      daemon_cfg
  in
  check_metrics_equal batch.P.metrics d.Vod_serve.Daemon.metrics;
  Alcotest.(check int) "replans = solves"
    (List.length batch.P.solves)
    (List.length d.Vod_serve.Daemon.replans);
  Alcotest.(check int) "nothing deferred" 0 (Vod_serve.Daemon.total_deferred d);
  (match P.last_solution batch with
  | None -> Alcotest.fail "batch MIP must have a solution"
  | Some sol ->
      Alcotest.(check bool) "final placement identical" true
        (sol.Vod_placement.Solution.stored
        = d.Vod_serve.Daemon.final.Vod_placement.Solution.stored);
      Alcotest.(check bool) "final objective bit-equal" true
        (sol.Vod_placement.Solution.objective
        = d.Vod_serve.Daemon.final.Vod_placement.Solution.objective));
  (* The daemon's per-replan GB equals the batch migration report (same
     per-copy sizes summed in a different association order, so equal to
     rounding only). *)
  List.iter2
    (fun (_, gb) (r : Vod_serve.Daemon.replan) ->
      Alcotest.(check (float 1e-6)) "migration GB" gb r.Vod_serve.Daemon.moved_gb)
    batch.P.migrations
    (List.tl d.Vod_serve.Daemon.replans)

(* ---------- budget restriction ---------- *)

let two_placements () =
  let sc = daemon_scenario () in
  let cfg =
    P.default_config ~scenario:sc
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.5)
      ~link_capacity_mbps:500.0
  in
  let pb = P.replan_problem cfg fast_mip in
  let week day0 =
    let requests =
      Vod_workload.Trace.between_days sc.Vod_core.Scenario.trace ~day_lo:day0
        ~day_hi:(day0 + 7)
    in
    Vod_serve.Replan.demand pb
      ~t0_s:(float_of_int day0 *. Vod_workload.Trace.seconds_per_day)
      requests
  in
  let d0 = week 0 and d3 = week 3 in
  let incumbent =
    (Vod_serve.Replan.solve pb d0).Vod_placement.Solve.solution
  in
  let target = (Vod_serve.Replan.solve pb d3).Vod_placement.Solve.solution in
  let n = Vod_workload.Catalog.n_videos sc.Vod_core.Scenario.catalog in
  let priority = Array.init n (Vod_workload.Demand.video_requests d3) in
  (sc.Vod_core.Scenario.catalog, incumbent, target, priority)

let same_set (a : int array) (b : int array) =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

let restrict_budget_properties () =
  let catalog, incumbent, target, priority = two_placements () in
  let restrict budget_gb =
    Vod_serve.Replan.restrict ~catalog ~incumbent ~target ~priority ~budget_gb
  in
  let all = restrict Float.infinity in
  Alcotest.(check bool) "infinite budget returns the target itself" true
    (all.Vod_serve.Replan.solution == target);
  Alcotest.(check int) "nothing deferred" 0 all.Vod_serve.Replan.deferred;
  Alcotest.(check bool) "placements actually differ" true
    (all.Vod_serve.Replan.applied > 0 && all.Vod_serve.Replan.moved_gb > 0.0);
  let none = restrict 0.0 in
  Alcotest.(check (float 1e-9)) "zero budget moves nothing" 0.0
    none.Vod_serve.Replan.moved_gb;
  Alcotest.(check int) "zero budget applies nothing" 0
    none.Vod_serve.Replan.applied;
  Alcotest.(check int) "zero budget defers every costly video"
    all.Vod_serve.Replan.applied none.Vod_serve.Replan.deferred;
  let half = restrict (all.Vod_serve.Replan.moved_gb /. 2.0) in
  Alcotest.(check bool) "half budget respected" true
    (half.Vod_serve.Replan.moved_gb <= all.Vod_serve.Replan.moved_gb /. 2.0);
  Alcotest.(check int) "applied + deferred conserved"
    all.Vod_serve.Replan.applied
    (half.Vod_serve.Replan.applied + half.Vod_serve.Replan.deferred);
  Alcotest.(check bool) "budget binds at half" true
    (half.Vod_serve.Replan.deferred > 0);
  (* Per-video atomicity: every copy set in the hybrid is either the
     incumbent's or the target's, never a mixture. *)
  Array.iteri
    (fun video hybrid ->
      Alcotest.(check bool)
        (Printf.sprintf "video %d atomic" video)
        true
        (same_set hybrid incumbent.Vod_placement.Solution.stored.(video)
        || same_set hybrid target.Vod_placement.Solution.stored.(video)))
    half.Vod_serve.Replan.solution.Vod_placement.Solution.stored

(* ---------- sliding-window estimation ---------- *)

(* predict_at at a day-aligned instant is exactly the batch predict. *)
let predict_at_matches_predict () =
  let sc = daemon_scenario () in
  let catalog = sc.Vod_core.Scenario.catalog in
  let trace = sc.Vod_core.Scenario.trace in
  List.iter
    (fun strategy ->
      let batch =
        Vod_workload.Estimator.predict strategy catalog trace ~week_start:7
      in
      let online =
        Vod_workload.Estimator.predict_at strategy catalog trace
          ~t0_s:(7.0 *. Vod_workload.Trace.seconds_per_day)
      in
      Alcotest.(check int)
        (Vod_workload.Estimator.name strategy ^ " count")
        (Array.length batch) (Array.length online);
      Alcotest.(check bool)
        (Vod_workload.Estimator.name strategy ^ " requests bit-equal")
        true (batch = online))
    [
      Vod_workload.Estimator.Perfect;
      Vod_workload.Estimator.History_only;
      Vod_workload.Estimator.Series_blockbuster;
    ]

(* Daemon boundary schedule: periodic ticks, fault merging, dedupe. *)
let daemon_boundaries () =
  let day = Vod_workload.Trace.seconds_per_day in
  let cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.update_every_s = day;
    }
  in
  let ticks = Vod_serve.Daemon.boundaries cfg ~horizon_s:(10.0 *. day) () in
  Alcotest.(check int) "daily ticks from day 7" 3 (List.length ticks);
  Alcotest.(check bool) "all periodic" true
    (List.for_all (fun (_, lab) -> lab = "periodic") ticks);
  let schedule =
    E.create
      [
        ev (5.0 *. day) (E.Vho_down 0);   (* inside bootstrap week: ignored *)
        ev (7.0 *. day) (E.Vho_up 0);     (* collides with a tick: deduped *)
        ev (8.5 *. day) (E.Vho_down 1);
      ]
  in
  let resil = Vod_resil.Playout.config ~schedule () in
  let merged = Vod_serve.Daemon.boundaries cfg ~resil ~horizon_s:(10.0 *. day) () in
  Alcotest.(check int) "3 ticks + 1 event" 4 (List.length merged);
  let times = List.map fst merged in
  Alcotest.(check bool) "sorted" true
    (List.sort compare times = times);
  Alcotest.(check bool) "event boundary present" true
    (List.mem_assoc (8.5 *. day) merged);
  Alcotest.(check string) "collision keeps the periodic label" "periodic"
    (List.assoc (7.0 *. day) merged);
  let no_react =
    Vod_serve.Daemon.boundaries
      { cfg with Vod_serve.Daemon.react_to_faults = false }
      ~resil ~horizon_s:(10.0 *. day) ()
  in
  Alcotest.(check int) "react off drops events" 3 (List.length no_react);
  (* A cadence that is not positive raises instead of looping forever
     (zero or negative) or never ticking (NaN). *)
  List.iter
    (fun every ->
      Alcotest.check_raises
        (Printf.sprintf "update_every_s = %g" every)
        (Invalid_argument "Daemon.boundaries: update_every_s must be positive")
        (fun () ->
          ignore
            (Vod_serve.Daemon.boundaries
               { cfg with Vod_serve.Daemon.update_every_s = every }
               ~horizon_s:(10.0 *. day) ())))
    [ 0.0; -1.0; Float.nan ]

(* The loop's [serve/*] degradation counters count what the reference
   engine's [resil/*] counters of the same name count, per rejection
   reason included, on the faulted fixture. *)
let loop_obs_counters_match_playout () =
  let g, paths, catalog, trace = sim_world () in
  let config = faulted_config trace in
  let counters run =
    let reg = Vod_obs.Obs.create () in
    Vod_obs.Obs.with_run reg (fun () -> ignore (run ()));
    reg
  in
  let resil =
    counters (fun () ->
        fst
          (Vod_resil.Playout.run ~graph:g ~paths ~catalog
             ~fleet:(lru_fleet paths catalog) ~trace config))
  in
  let unified =
    counters (fun () ->
        fst
          (Vod_serve.Loop.run ~graph:g ~paths ~catalog
             ~fleet:(lru_fleet paths catalog) ~trace ~resil:config ()))
  in
  let counter reg name =
    match Vod_obs.Obs.read reg name with
    | Some (Vod_obs.Obs.Counter n) -> n
    | None -> 0
    | Some _ -> Alcotest.fail (name ^ " is not a counter")
  in
  List.iter
    (fun name ->
      Alcotest.(check int) name
        (counter resil ("resil/" ^ name))
        (counter unified ("serve/" ^ name)))
    [
      "rejections";
      "rejections/vho_down";
      "rejections/no_replica";
      "rejections/unreachable";
      "rejections/no_capacity";
      "failovers";
      "failover_extra_hops";
      "origin_served";
      "surged_streams";
      "events_applied";
    ];
  (* Not every counter fires on this fixture; these are the ones that
     do, so the comparison above is not vacuous. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counted") true
        (counter unified ("serve/" ^ name) > 0))
    [
      "rejections";
      "rejections/vho_down";
      "failovers";
      "origin_served";
      "surged_streams";
      "events_applied";
    ]

(* ---------- exceptional-path settlement ---------- *)

(* Regression tests for the missing-protect defects vodlint's protocol
   analysis surfaced: when [play] raises mid-run, the Fun.protect in
   [Loop.run] / [Daemon.run] must still settle the capacity ledger, so
   [finish]'s telemetry is published on the exceptional path too. *)

(* Splice one out-of-range VHO into a valid trace at [time_s];
   Metrics.validate_vhos rejects it inside [play]. The record literal
   deliberately bypasses Trace.create's validation. *)
let bad_vho_trace (trace : Vod_workload.Trace.t) ~time_s =
  let bad = { Vod_workload.Trace.time_s; vho = 99; video = 0 } in
  let requests = Array.append trace.Vod_workload.Trace.requests [| bad |] in
  Array.sort
    (fun (a : Vod_workload.Trace.request) (b : Vod_workload.Trace.request) ->
      Float.compare a.Vod_workload.Trace.time_s b.Vod_workload.Trace.time_s)
    requests;
  { trace with Vod_workload.Trace.requests }

let check_gauge_settled reg name =
  match Vod_obs.Obs.read reg name with
  | Some (Vod_obs.Obs.Gauge _) -> ()
  | _ ->
      Alcotest.fail
        (name ^ " must be published even when play raises mid-run")

(* Loop.finish only publishes the saturation gauge in the failover
   configuration, so run the loop with a (fault-free) resil config. *)
let loop_settles_on_raise () =
  let g, paths, catalog, trace = sim_world () in
  let resil = Vod_resil.Playout.config ~link_capacity_mbps:120.0 ~origin:2 () in
  let reg = Vod_obs.Obs.create () in
  let raised = ref false in
  (try
     Vod_obs.Obs.with_run reg (fun () ->
         ignore
           (Vod_serve.Loop.run ~graph:g ~paths ~catalog
              ~fleet:(lru_fleet paths catalog)
              ~trace:(bad_vho_trace trace ~time_s:0.0)
              ~resil ()))
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "play raised" true !raised;
  check_gauge_settled reg "serve/link_saturated_seconds"

(* The bad request sits at day 9.5 — past the last replan boundary (day
   9), so every demand window and predict slice stays valid and only the
   final play inside the daemon's Fun.protect sees it. *)
let daemon_settles_on_raise () =
  let sc = daemon_scenario () in
  let cfg =
    P.default_config ~scenario:sc
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.5)
      ~link_capacity_mbps:500.0
  in
  let trace =
    bad_vho_trace sc.Vod_core.Scenario.trace
      ~time_s:(9.5 *. Vod_workload.Trace.seconds_per_day)
  in
  let resil = Vod_resil.Playout.config ~link_capacity_mbps:500.0 () in
  let daemon_cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.update_every_s = Vod_workload.Trace.seconds_per_day;
      Vod_serve.Daemon.warm_start = false;
      Vod_serve.Daemon.react_to_faults = false;
    }
  in
  let reg = Vod_obs.Obs.create () in
  let raised = ref false in
  (try
     Vod_obs.Obs.with_run reg (fun () ->
         ignore
           (Vod_serve.Daemon.run ~graph:sc.Vod_core.Scenario.graph
              ~paths:sc.Vod_core.Scenario.paths
              ~catalog:sc.Vod_core.Scenario.catalog ~trace
              ~problem:(P.replan_problem cfg fast_mip)
              ~resil daemon_cfg))
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "play raised" true !raised;
  check_gauge_settled reg "serve/link_saturated_seconds"

let suite =
  [
    Alcotest.test_case "loop matches legacy sim" `Quick loop_matches_legacy_sim;
    Alcotest.test_case "loop matches resil playout" `Quick
      loop_matches_resil_playout;
    Alcotest.test_case "daemon matches daily batch" `Slow
      daemon_matches_daily_batch;
    Alcotest.test_case "restrict budget properties" `Slow
      restrict_budget_properties;
    Alcotest.test_case "predict_at matches predict" `Quick
      predict_at_matches_predict;
    Alcotest.test_case "daemon boundaries" `Quick daemon_boundaries;
    Alcotest.test_case "loop obs counters match playout" `Quick
      loop_obs_counters_match_playout;
    Alcotest.test_case "loop settles ledger on raise" `Quick
      loop_settles_on_raise;
    Alcotest.test_case "daemon settles ledger on raise" `Slow
      daemon_settles_on_raise;
  ]
