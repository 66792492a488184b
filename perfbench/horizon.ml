(* The online daemon's horizon, driven from outside through the same
   public calls [Vod_serve.Daemon.run] makes, so that each replan can be
   timed from the boundary instant to the moment its fleet is in force:

     Loop.play -> Loop.advance -> Estimator.predict_at -> Replan.demand
     -> Replan.solve ~incumbent -> Replan.restrict -> Fleet.mip
     -> Loop.set_fleet

   The call sequence and arguments match [Daemon.run] step for step;
   horizon_test.ml pins the final placement, metrics and windows to it
   byte for byte. *)

module Sol = Vod_placement.Solution
module Trace = Vod_workload.Trace
module Replan = Vod_serve.Replan
module Loop = Vod_serve.Loop
module Daemon = Vod_serve.Daemon

type replan = {
  t_s : float;
  trigger : string;
  latency_s : float;  (* boundary reached -> new fleet in force *)
  demand : Vod_workload.Demand.t;
  down_vhos : bool array option;
  report : Vod_placement.Solve.report;
  applied : int;
  deferred : int;
  moved_gb : float;
}

type result = {
  metrics : Vod_sim.Metrics.t;
  replans : replan list;  (* oldest first; the bootstrap is not included *)
  windows : Vod_resil.Playout.window list;
  final : Sol.t;
}

(* [boot] is the caller's solve of the first week, the placement
   [Daemon.run] bootstraps from. *)
let run ~graph ~paths ~catalog ~(trace : Trace.t) ~(problem : Replan.problem)
    ?resil ~(boot : Vod_placement.Solve.report) (cfg : Daemon.config) =
  let horizon_s = float_of_int trace.Trace.days *. Trace.seconds_per_day in
  let n_vhos = Vod_topology.Graph.n_nodes graph in
  let metrics =
    Vod_sim.Metrics.create
      ~n_links:(Vod_topology.Graph.n_links graph)
      ~n_vhos ~horizon_s ()
  in
  let cache_gb = Array.map (fun d -> d *. problem.Replan.cache_frac) problem.Replan.disk_gb in
  let fleet_of sol =
    Spans.span "fleet" (fun () -> Vod_cache.Fleet.mip ~solution:sol ~paths ~catalog ~cache_gb)
  in
  let current = ref boot.Vod_placement.Solve.solution in
  let loop = Loop.create ~graph ~paths ~catalog ~fleet:(fleet_of !current) ?resil () in
  let play t0_s t1_s =
    let batch = Trace.between trace ~t0_s ~t1_s in
    Spans.span "daemon_serve" (fun () -> Loop.play loop metrics batch)
  in
  let n_videos = Vod_workload.Catalog.n_videos catalog in
  let replans = ref [] in
  let prev = ref 0.0 in
  Fun.protect
    ~finally:(fun () -> Loop.finish loop metrics)
    (fun () ->
      List.iter
        (fun (t_b, trigger) ->
          play !prev t_b;
          Loop.advance loop ~now:t_b;
          let t0 = Unix.gettimeofday () in
          Spans.span "replan" @@ fun () ->
          let predicted =
            Spans.span "estimate" (fun () ->
                Vod_workload.Estimator.predict_at ~history_s:cfg.Daemon.history_s
                  cfg.Daemon.estimator catalog trace ~t0_s:t_b)
          in
          let demand = Replan.demand problem ~t0_s:t_b predicted in
          let incumbent = if cfg.Daemon.warm_start then Some !current else None in
          let down_vhos =
            if cfg.Daemon.react_to_faults then
              Some (Array.init n_vhos (fun i -> not (Loop.vho_up loop i)))
            else None
          in
          let report = Replan.solve ?incumbent ?down_vhos problem demand in
          let priority = Array.init n_videos (Vod_workload.Demand.video_requests demand) in
          let delta =
            Spans.span "restrict" (fun () ->
                Replan.restrict ~catalog ~incumbent:!current
                  ~target:report.Vod_placement.Solve.solution ~priority
                  ~budget_gb:cfg.Daemon.migration_budget_gb)
          in
          current := delta.Replan.solution;
          Loop.set_fleet loop (fleet_of !current);
          replans :=
            {
              t_s = t_b;
              trigger;
              latency_s = Unix.gettimeofday () -. t0;
              demand;
              down_vhos;
              report;
              applied = delta.Replan.applied;
              deferred = delta.Replan.deferred;
              moved_gb = delta.Replan.moved_gb;
            }
            :: !replans;
          prev := t_b)
        (Daemon.boundaries cfg ?resil ~horizon_s ());
      play !prev horizon_s);
  { metrics; replans = List.rev !replans; windows = Loop.windows loop; final = !current }

(* The instance [Replan.solve] built for one replan, rebuilt for the
   audit from the problem, the replan's demand and its dark VHOs. *)
let instance (problem : Replan.problem) (r : replan) =
  let disk =
    Array.mapi
      (fun i d ->
        match r.down_vhos with
        | Some down when down.(i) -> Replan.down_disk_gb
        | Some _ | None -> d *. (1.0 -. problem.Replan.cache_frac))
      problem.Replan.disk_gb
  in
  Vod_placement.Instance.create ~graph:problem.Replan.graph
    ~catalog:problem.Replan.catalog ~demand:r.demand ~disk_gb:disk
    ~link_capacity_mbps:
      (Vod_placement.Instance.uniform_links problem.Replan.graph
         problem.Replan.link_capacity_mbps)
    ()
