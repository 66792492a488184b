(* Pins the benchmark's externally driven daemon horizon to
   [Vod_serve.Daemon.run] on a small faulted, budgeted fixture: the
   final placement, the serving metrics and the event windows must be
   byte-identical. The bootstrap handed to the horizon is solved the way
   the benchmark solves it (SoA demand, [Instance.create],
   [Backend.solve]), so the test also pins that path to the daemon's own
   bootstrap. Exits non-zero on any difference. *)

module Trace = Vod_workload.Trace
module Sol = Vod_placement.Solution
module Daemon = Vod_serve.Daemon
module Replan = Vod_serve.Replan

let day_s = Trace.seconds_per_day

let () =
  let graph = Vod_topology.Topologies.backbone55 () in
  let paths = Vod_topology.Paths.compute graph in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:60 ~days:9 ~seed:5)
  in
  let store =
    Vod_workload.Tracegen.generate_soa ~jobs:1
      (Vod_workload.Tracegen.default_params ~catalog ~populations:graph.populations
         ~mean_daily_requests:480.0 ~seed:6)
  in
  let trace = Vod_workload.Trace_soa.to_trace store in
  let n_vhos = Vod_topology.Graph.n_nodes graph in
  let disk_gb =
    Vod_placement.Instance.uniform_disk
      ~total_gb:(2.0 *. Vod_workload.Catalog.total_size_gb catalog)
      n_vhos
  in
  let problem =
    {
      Replan.graph;
      catalog;
      disk_gb;
      link_capacity_mbps = 150.0;
      cache_frac = 0.05;
      n_windows = 2;
      window_s = 3600.0;
      engine = { Vod_epf.Engine.default_params with max_passes = 4; jobs = 1 };
      solver = "epf";
    }
  in
  let vho = (Vod_topology.Topologies.top_population_nodes graph 1).(0) in
  let resil =
    Vod_resil.Playout.config
      ~schedule:
        (Vod_resil.Event.create
           [
             { Vod_resil.Event.time_s = 7.3 *. day_s; kind = Vod_resil.Event.Vho_down vho };
             { Vod_resil.Event.time_s = 7.8 *. day_s; kind = Vod_resil.Event.Vho_up vho };
           ])
      ~link_capacity_mbps:300.0 ()
  in
  let cfg =
    {
      Daemon.default_config with
      Daemon.update_every_s = 12.0 *. 3600.0;
      migration_budget_gb = 5.0;
    }
  in
  let boot =
    let lo, hi = Vod_workload.Trace_soa.between_days store ~day_lo:0 ~day_hi:7 in
    let demand =
      Vod_workload.Demand.of_soa catalog ~n_vhos ~day0:0 ~days:7 ~n_windows:2
        ~window_s:3600.0 store ~lo ~hi
    in
    Vod_placement.Backend.solve ~params:problem.Replan.engine
      (Vod_placement.Instance.create ~graph ~catalog ~demand
         ~disk_gb:(Array.map (fun d -> d *. 0.95) disk_gb)
         ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph 150.0)
         ())
  in
  let reference = Daemon.run ~graph ~paths ~catalog ~trace ~problem ~resil cfg in
  let driven = Horizon.run ~graph ~paths ~catalog ~trace ~problem ~resil ~boot cfg in
  let placement (s : Sol.t) =
    let routes =
      Array.map
        (fun tbl -> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))
        s.Sol.routes
    in
    Marshal.to_string
      (s.Sol.stored, routes, s.Sol.objective, s.Sol.lower_bound, s.Sol.max_violation)
      []
  in
  let checks =
    [
      ("final placement", placement reference.Daemon.final = placement driven.Horizon.final);
      ( "metrics",
        Marshal.to_string reference.Daemon.metrics []
        = Marshal.to_string driven.Horizon.metrics [] );
      ( "windows",
        Marshal.to_string reference.Daemon.windows []
        = Marshal.to_string driven.Horizon.windows [] );
      ( "replan count",
        List.length reference.Daemon.replans = 1 + List.length driven.Horizon.replans );
      ( "moved GB",
        Daemon.total_moved_gb reference
        = List.fold_left (fun a r -> a +. r.Horizon.moved_gb) 0.0 driven.Horizon.replans );
      ( "fault replans present",
        List.exists (fun r -> r.Horizon.trigger <> "periodic") driven.Horizon.replans );
    ]
  in
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (name, _) -> Printf.printf "horizon differs from Daemon.run: %s\n" name) bad;
  if bad <> [] then exit 1;
  Printf.printf "external horizon matches Daemon.run (%d replans)\n"
    (List.length driven.Horizon.replans)
