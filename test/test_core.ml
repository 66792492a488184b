(* Integration tests: scenarios and the full weekly pipeline at toy scale,
   exercising every scheme end-to-end. *)

module Sc = Vod_core.Scenario
module P = Vod_core.Pipeline

let tiny_scenario ?(days = 21) () =
  let graph =
    Vod_topology.Graph.create ~name:"ring6" ~n:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3) ]
      ~populations:[| 3.0; 1.0; 2.0; 1.0; 1.0; 1.0 |]
  in
  Sc.make ~days ~requests_per_video_per_day:8.0 ~seed:13 ~graph ~n_videos:60 ()

let scenario_construction () =
  let sc = tiny_scenario () in
  Alcotest.(check int) "days" 21 sc.Sc.trace.Vod_workload.Trace.days;
  Alcotest.(check bool) "library sized" true (Sc.library_gb sc > 0.0);
  let disk = Sc.uniform_disk sc ~multiple:2.0 in
  Alcotest.(check int) "per-vho" 6 (Array.length disk);
  Alcotest.(check (float 0.01)) "aggregate = 2x library" (2.0 *. Sc.library_gb sc)
    (Array.fold_left ( +. ) 0.0 disk)

let hetero_disk_shape () =
  let sc = tiny_scenario () in
  let disk = Sc.hetero_disk sc ~multiple:2.0 in
  Alcotest.(check (float 0.01)) "aggregate preserved" (2.0 *. Sc.library_gb sc)
    (Array.fold_left ( +. ) 0.0 disk);
  (* The largest metro gets the largest share (4:2:1 classes). *)
  let top = Vod_topology.Topologies.top_population_nodes sc.Sc.graph 1 in
  let max_disk = Array.fold_left Float.max 0.0 disk in
  Alcotest.(check (float 1e-9)) "largest metro largest disk" max_disk disk.(top.(0))

let demand_of_week_works () =
  let sc = tiny_scenario () in
  let d = Sc.demand_of_week sc ~day0:7 () in
  Alcotest.(check bool) "nonzero demand" true (d.Vod_workload.Demand.total_requests > 0.0);
  Alcotest.(check int) "two windows" 2 (Array.length d.Vod_workload.Demand.windows)

let fast_mip =
  {
    P.default_mip with
    P.engine = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 20 };
  }

let run_scheme scheme =
  let sc = tiny_scenario () in
  let disk = Sc.uniform_disk sc ~multiple:2.5 in
  let cfg =
    { (P.default_config ~scenario:sc ~disk_gb:disk ~link_capacity_mbps:500.0) with P.warmup_days = 7 }
  in
  P.run cfg scheme

let pipeline_conservation result =
  let m = result.P.metrics in
  Alcotest.(check bool) "requests counted" true (m.Vod_sim.Metrics.requests > 0);
  Alcotest.(check int) "local+remote"
    m.Vod_sim.Metrics.requests
    (m.Vod_sim.Metrics.local_served + m.Vod_sim.Metrics.remote_served)

let pipeline_mip () =
  let r = run_scheme (P.Mip fast_mip) in
  pipeline_conservation r;
  (* Bootstrap + updates at days 7 and 14. *)
  Alcotest.(check int) "three solves" 3 (List.length r.P.solves);
  Alcotest.(check int) "two migrations" 2 (List.length r.P.migrations);
  Alcotest.(check bool) "has solution" true (Option.is_some (P.last_solution r))

let pipeline_mip_biweekly () =
  let r = run_scheme (P.Mip { fast_mip with P.update_days = 14 }) in
  (* Bootstrap + one update at day 7 (21-day trace, step 14). *)
  Alcotest.(check int) "two solves" 2 (List.length r.P.solves)

let pipeline_random_lru () =
  let r = run_scheme (P.Random_cache Vod_cache.Cache.Lru) in
  pipeline_conservation r;
  Alcotest.(check int) "no solves" 0 (List.length r.P.solves)

let pipeline_random_lfu () = pipeline_conservation (run_scheme (P.Random_cache Vod_cache.Cache.Lfu))

let pipeline_topk () = pipeline_conservation (run_scheme (P.Topk_lru 5))

let pipeline_origin () = pipeline_conservation (run_scheme (P.Origin_lru 2))

let estimation_ordering () =
  (* Perfect knowledge should never do materially worse than no estimate
     on total transfer (paper Table VI). Toy scale, so allow slack. *)
  let run est =
    let r = run_scheme (P.Mip { fast_mip with P.estimator = est }) in
    r.P.metrics.Vod_sim.Metrics.total_gb_hops
  in
  let perfect = run Vod_workload.Estimator.Perfect in
  let none = run Vod_workload.Estimator.History_only in
  Alcotest.(check bool)
    (Printf.sprintf "perfect (%.0f) <= none (%.0f) * 1.1" perfect none)
    true (perfect <= none *. 1.1)

(* The MIP update days of a [days]-long trace: the replan boundaries of
   the daemon preset [Pipeline.run_mip] runs (day-aligned ticks every
   [update_days], no fault reaction), in seconds. *)
let update_ticks ~days ~update_days =
  let day = Vod_workload.Trace.seconds_per_day in
  let cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.update_every_s = float_of_int update_days *. day;
      react_to_faults = false;
    }
  in
  List.map fst
    (Vod_serve.Daemon.boundaries cfg ~horizon_s:(float_of_int days *. day) ())

let days_s = List.map (fun d -> float_of_int d *. Vod_workload.Trace.seconds_per_day)

let update_schedule_tiling () =
  (* The documented tiling guarantee: updates run every [update_days]
     from day 7 while strictly inside the trace; the last segment may be
     shorter but is never dropped. *)
  let exact = Alcotest.(list (float 0.0)) in
  Alcotest.check exact "30d weekly" (days_s [ 7; 14; 21; 28 ])
    (update_ticks ~days:30 ~update_days:7);
  Alcotest.check exact "21d biweekly" (days_s [ 7 ])
    (update_ticks ~days:21 ~update_days:14);
  Alcotest.check exact "28d weekly ends exactly" (days_s [ 7; 14; 21 ])
    (update_ticks ~days:28 ~update_days:7);
  Alcotest.check exact "short trace has no updates" []
    (update_ticks ~days:7 ~update_days:1);
  Alcotest.check_raises "non-positive period"
    (Invalid_argument "Daemon.boundaries: update_every_s must be positive")
    (fun () -> ignore (update_ticks ~days:30 ~update_days:0))

(* 30-day trace with weekly updates: update_days does not divide the
   post-bootstrap span (23 days), so the final segment is a 2-day stub.
   Every request must still play exactly once, with a solve per
   boundary. *)
let pipeline_30d_weekly_regression () =
  let graph =
    Vod_topology.Graph.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 2.0; 1.0; 1.0; 1.0 |]
  in
  let sc =
    Sc.make ~days:30 ~requests_per_video_per_day:4.0 ~seed:17 ~graph
      ~n_videos:30 ()
  in
  let cfg =
    {
      (P.default_config ~scenario:sc ~disk_gb:(Sc.uniform_disk sc ~multiple:2.5)
         ~link_capacity_mbps:500.0)
      with
      P.warmup_days = 0;
    }
  in
  let r =
    P.run cfg (P.Mip { fast_mip with P.engine = { fast_mip.P.engine with Vod_epf.Engine.max_passes = 8 } })
  in
  (* Bootstrap + updates at 7, 14, 21, 28. *)
  Alcotest.(check int) "five solves" 5 (List.length r.P.solves);
  Alcotest.(check int) "four migrations" 4 (List.length r.P.migrations);
  (* With no warmup every request is recorded: played exactly once. *)
  Alcotest.(check int) "request conservation"
    (Vod_workload.Trace.length sc.Sc.trace)
    r.P.metrics.Vod_sim.Metrics.requests;
  pipeline_conservation r

(* ---------- golden digests of the MIP pipeline ----------

   Digests of every output the exhibits print — metrics (link loads
   included), degradation counters, event windows, solve objectives and
   migrations — rendered with %h floats, recorded from the pipeline's
   own update loop before it became a preset of the online daemon. Any
   change to the serving, estimation or solve path that moves a single
   bit of these outputs changes a digest. *)

let digest_of_result (r : P.result) =
  let module M = Vod_sim.Metrics in
  let b = Buffer.create 4096 in
  let f x = Printf.bprintf b "%h;" x and i n = Printf.bprintf b "%d;" n in
  let m = r.P.metrics in
  List.iter i
    [ m.M.requests; m.M.local_served; m.M.cache_hits; m.M.remote_served;
      m.M.not_cachable ];
  f m.M.total_gb_hops;
  f m.M.total_gb_remote;
  Array.iter i m.M.per_vho_requests;
  Array.iter i m.M.per_vho_local;
  Array.iter (Array.iter f) m.M.link_load;
  let d = m.M.deg in
  List.iter i
    [ d.M.rejections; d.M.rejected_vho_down; d.M.rejected_no_replica;
      d.M.rejected_unreachable; d.M.rejected_no_capacity; d.M.failovers;
      d.M.failover_extra_hops; d.M.origin_served ];
  f d.M.link_saturated_s;
  List.iter
    (fun (w : Vod_resil.Playout.window) ->
      f w.Vod_resil.Playout.t0_s;
      f w.Vod_resil.Playout.t1_s;
      Buffer.add_string b w.Vod_resil.Playout.trigger;
      i w.Vod_resil.Playout.requests;
      i w.Vod_resil.Playout.rejections;
      i w.Vod_resil.Playout.failovers)
    r.P.resil_windows;
  List.iter
    (fun (s : Vod_placement.Solve.report) ->
      f s.Vod_placement.Solve.solution.Vod_placement.Solution.objective;
      f s.Vod_placement.Solve.lp_objective;
      f s.Vod_placement.Solve.lp_violation;
      i s.Vod_placement.Solve.passes)
    r.P.solves;
  List.iter (fun (n, gb) -> i n; f gb) r.P.migrations;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The tiny 6-VHO ring of [tiny_scenario], [days] long, under MIP
   updates every [update_days]; with [link_capacity_mbps], the top VHO
   fails from 40 % to 70 % of the horizon and the playout links carry
   that many Mb/s. *)
let golden_run ~days ~update_days ?link_capacity_mbps () =
  let sc = tiny_scenario ~days () in
  let base =
    P.default_config ~scenario:sc ~disk_gb:(Sc.uniform_disk sc ~multiple:2.5)
      ~link_capacity_mbps:500.0
  in
  let resil =
    Option.map
      (fun cap ->
        Vod_resil.Playout.config ~schedule:(Sc.single_vho_outage sc)
          ~link_capacity_mbps:cap ())
      link_capacity_mbps
  in
  let mip =
    {
      P.default_mip with
      P.update_days;
      engine = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 12 };
    }
  in
  P.run { base with P.warmup_days = 7; resil } (P.Mip mip)

let pipeline_golden_digests () =
  let check name ~solves ~digest r =
    Alcotest.(check int) (name ^ ": solves") solves (List.length r.P.solves);
    Alcotest.(check string) (name ^ ": digest") digest (digest_of_result r)
  in
  check "fault-free weekly" ~solves:3 ~digest:"2b73cd3b7119260c62eff6cebe3912a6"
    (golden_run ~days:21 ~update_days:7 ());
  (* Updates at days 7, 10, 13 and 16: the last segment is one day. *)
  check "outage, 17 days every 3" ~solves:5
    ~digest:"a91481bba0586ac088f4a7e81d078bc3"
    (golden_run ~days:17 ~update_days:3 ~link_capacity_mbps:60.0 ());
  let tight = golden_run ~days:14 ~update_days:7 ~link_capacity_mbps:6.0 () in
  Alcotest.(check bool) "6 Mb/s links saturate" true
    (tight.P.metrics.Vod_sim.Metrics.deg.Vod_sim.Metrics.link_saturated_s > 0.0);
  check "outage, 6 Mb/s links" ~solves:2
    ~digest:"ae51b0e3093914e12a935eed0fb99c49" tight

let scheme_names () =
  let sc = tiny_scenario () in
  let cfg =
    P.default_config ~scenario:sc ~disk_gb:(Sc.uniform_disk sc ~multiple:2.0)
      ~link_capacity_mbps:500.0
  in
  Alcotest.(check string) "lru name" "random+lru" (P.scheme_name cfg (P.Random_cache Vod_cache.Cache.Lru));
  Alcotest.(check string) "topk name" "top7+lru" (P.scheme_name cfg (P.Topk_lru 7))

let suite =
  [
    Alcotest.test_case "scenario construction" `Quick scenario_construction;
    Alcotest.test_case "hetero disk shape" `Quick hetero_disk_shape;
    Alcotest.test_case "demand of week" `Quick demand_of_week_works;
    Alcotest.test_case "pipeline mip" `Slow pipeline_mip;
    Alcotest.test_case "pipeline mip biweekly" `Slow pipeline_mip_biweekly;
    Alcotest.test_case "pipeline random lru" `Quick pipeline_random_lru;
    Alcotest.test_case "pipeline random lfu" `Quick pipeline_random_lfu;
    Alcotest.test_case "pipeline topk" `Quick pipeline_topk;
    Alcotest.test_case "pipeline origin" `Quick pipeline_origin;
    Alcotest.test_case "estimation ordering" `Slow estimation_ordering;
    Alcotest.test_case "update schedule tiling" `Quick update_schedule_tiling;
    Alcotest.test_case "30d weekly regression" `Slow pipeline_30d_weekly_regression;
    Alcotest.test_case "pipeline golden digests" `Quick pipeline_golden_digests;
    Alcotest.test_case "scheme names" `Quick scheme_names;
  ]
