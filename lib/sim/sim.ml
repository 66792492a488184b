(* The fixed-path reference playout: drive a fleet with a request batch,
   accounting remote streams onto every link of the fixed path for the
   duration of playback (paper Sec. VII-A: "custom built simulator").
   Production serving goes through Vod_serve.Loop; this engine is kept
   as the independent reference its direct configuration is tested
   against (test/test_serve.ml, test/test_soa.ml). *)

let src = Logs.Src.create "vod.sim" ~doc:"trace playout"

module Log = (val Logs.src_log src : Logs.LOG)

(* Play a batch of requests (must be time-sorted) through [fleet],
   accumulating into [metrics]. VHO ids are validated against the
   per-VHO counter arrays once at entry ([Metrics.validate_vhos]) so a
   malformed trace raises instead of silently dropping counters. *)
let play metrics (paths : Vod_topology.Paths.t)
    (catalog : Vod_workload.Catalog.t) fleet (requests : Vod_workload.Trace.request array) =
  Metrics.validate_vhos metrics requests;
  let track_per_vho = Array.length metrics.Metrics.per_vho_requests > 0 in
  Array.iter
    (fun (r : Vod_workload.Trace.request) ->
      let now = r.Vod_workload.Trace.time_s in
      let video = r.Vod_workload.Trace.video in
      let vho = r.Vod_workload.Trace.vho in
      let outcome = Vod_cache.Fleet.serve fleet ~video ~vho ~now in
      let record = Metrics.in_record_window metrics now in
      if record then begin
        metrics.Metrics.requests <- metrics.Metrics.requests + 1;
        if track_per_vho then
          metrics.Metrics.per_vho_requests.(vho) <-
            metrics.Metrics.per_vho_requests.(vho) + 1;
        if outcome.Vod_cache.Fleet.local then begin
          metrics.Metrics.local_served <- metrics.Metrics.local_served + 1;
          if track_per_vho then
            metrics.Metrics.per_vho_local.(vho) <-
              metrics.Metrics.per_vho_local.(vho) + 1;
          if outcome.Vod_cache.Fleet.cache_hit then
            metrics.Metrics.cache_hits <- metrics.Metrics.cache_hits + 1
        end
        else begin
          metrics.Metrics.remote_served <- metrics.Metrics.remote_served + 1;
          if outcome.Vod_cache.Fleet.not_cachable then
            metrics.Metrics.not_cachable <- metrics.Metrics.not_cachable + 1
        end
      end;
      if not outcome.Vod_cache.Fleet.local then begin
        let server = outcome.Vod_cache.Fleet.server in
        let v = Vod_workload.Catalog.video catalog video in
        let rate = Vod_workload.Video.rate_mbps v in
        let dur = Vod_workload.Video.duration_s v in
        let links = Vod_topology.Paths.path_links paths ~src:server ~dst:vho in
        (* Explicit loop: an [Array.iter] lambda here is a fresh
           closure per remote request, in the hottest loop of the
           playout (alloc-in-hot). *)
        let t1 = now +. dur in
        for i = 0 to Array.length links - 1 do
          Metrics.add_stream metrics ~link:links.(i) ~rate_mbps:rate ~t0:now ~t1
        done;
        if record then begin
          let hops = float_of_int (Vod_topology.Paths.hops paths ~src:server ~dst:vho) in
          let gb = Vod_workload.Video.size_gb v in
          metrics.Metrics.total_gb_hops <- metrics.Metrics.total_gb_hops +. (gb *. hops);
          metrics.Metrics.total_gb_remote <- metrics.Metrics.total_gb_remote +. gb
        end
      end)
    requests

(* One-shot playout of a full trace. *)
let run ~graph ~paths ~catalog ~fleet ~trace ?(bin_s = 300.0)
    ?(record_from = 0.0) () =
  let horizon_s =
    float_of_int trace.Vod_workload.Trace.days *. Vod_workload.Trace.seconds_per_day
  in
  let metrics =
    Metrics.create
      ~n_links:(Vod_topology.Graph.n_links graph)
      ~n_vhos:(Vod_topology.Graph.n_nodes graph)
      ~horizon_s ~bin_s ~record_from ()
  in
  play metrics paths catalog fleet trace.Vod_workload.Trace.requests;
  Log.info (fun m ->
      m "%s: %d requests, local %.1f%%, peak link %.0f Mb/s, %.0f GBxhop"
        (Vod_cache.Fleet.name fleet) metrics.Metrics.requests
        (100.0 *. Metrics.local_fraction metrics)
        (Metrics.max_link_mbps metrics) metrics.Metrics.total_gb_hops);
  metrics
