(* Tests for the compact struct-of-arrays request store (lib/workload
   Trace_soa) and the serving loop over it: lossless round-trips against
   the boxed representation, windowed-reader boundary cases, and
   byte-identical metrics between the loop (store and array entry
   points) and the reference engines in both configurations. *)

module E = Vod_resil.Event
module M = Vod_sim.Metrics
module T = Vod_workload.Trace
module S = Vod_workload.Trace_soa

let ev time_s kind = { E.time_s; kind }

let ring4 () =
  Vod_topology.Graph.create ~name:"ring4" ~n:4
    ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
    ~populations:[| 2.0; 1.0; 1.0; 1.0 |]

let sim_world ?(mean_daily_requests = 400.0) () =
  let g = ring4 () in
  let paths = Vod_topology.Paths.compute g in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:30 ~days:7 ~seed:3)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:g.Vod_topology.Graph.populations ~mean_daily_requests
         ~seed:4)
  in
  (g, paths, catalog, trace)

let tracegen_params () =
  let g = ring4 () in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:30 ~days:7 ~seed:3)
  in
  Vod_workload.Tracegen.default_params ~catalog
    ~populations:g.Vod_topology.Graph.populations ~mean_daily_requests:400.0
    ~seed:4

let lru_fleet paths catalog =
  Vod_cache.Fleet.random_single ~paths ~catalog
    ~disk_gb:[| 15.0; 15.0; 15.0; 15.0 |] ~policy:Vod_cache.Cache.Lru ~seed:5

let check_requests_equal label (a : T.request array) (b : T.request array) =
  Alcotest.(check int) (label ^ ": length") (Array.length a) (Array.length b);
  Alcotest.(check bool) (label ^ ": requests bit-equal") true (a = b)

(* ---------- round trips ---------- *)

(* of_trace / to_trace is lossless, row for row, on a real generated
   trace (tied times included: the same sort permutation applies). *)
let roundtrip_of_to_trace () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  Alcotest.(check int) "length" (T.length trace) (S.length soa);
  Alcotest.(check int) "n_vhos" trace.T.n_vhos soa.S.n_vhos;
  Alcotest.(check int) "days" trace.T.days soa.S.days;
  let back = S.to_trace soa in
  check_requests_equal "to_trace" trace.T.requests back.T.requests;
  (* Row accessors agree with the boxed records. *)
  Array.iteri
    (fun i (r : T.request) ->
      Alcotest.(check bool) "time bit-equal" true (S.time soa i = r.T.time_s);
      Alcotest.(check int) "vho" r.T.vho (S.vho soa i);
      Alcotest.(check int) "video" r.T.video (S.video soa i))
    trace.T.requests;
  Alcotest.(check int) "resident bytes = 16/row" (16 * T.length trace)
    (S.resident_bytes soa)

(* The SoA generator emits exactly the rows of the boxed generator. *)
let generate_soa_matches_generate () =
  let p = tracegen_params () in
  let boxed = S.of_trace (Vod_workload.Tracegen.generate p) in
  let soa = Vod_workload.Tracegen.generate_soa p in
  check_requests_equal "generate_soa"
    (S.window_requests boxed ~lo:0 ~hi:(S.length boxed))
    (S.window_requests soa ~lo:0 ~hi:(S.length soa))

(* Sharded generation is bit-identical at any job count and any staging
   window. *)
let generate_soa_jobs_invariant () =
  let p = tracegen_params () in
  let seq = Vod_workload.Tracegen.generate_soa ~jobs:1 p in
  let par = Vod_workload.Tracegen.generate_soa ~jobs:3 ~window_days:2 p in
  check_requests_equal "jobs 1 vs 3"
    (S.window_requests seq ~lo:0 ~hi:(S.length seq))
    (S.window_requests par ~lo:0 ~hi:(S.length par))

(* CSV: save_csv_soa / load_csv_soa round-trips through the streaming
   loader (times quantized to the CSV's 1 ms, as the boxed loader). *)
let csv_roundtrip_soa () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  let path = Filename.temp_file "vod_soa" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vod_workload.Trace_io.save_csv_soa soa path;
      let loaded =
        Vod_workload.Trace_io.load_csv_soa ~n_videos:30
          ~n_vhos:trace.T.n_vhos ~days:trace.T.days path
      in
      Alcotest.(check int) "length" (S.length soa) (S.length loaded);
      (* Compare against the boxed loader: identical parse, identical
         sort. *)
      let boxed =
        Vod_workload.Trace_io.load_csv ~n_videos:30 ~n_vhos:trace.T.n_vhos
          ~days:trace.T.days path
      in
      check_requests_equal "csv"
        boxed.T.requests
        (S.window_requests loaded ~lo:0 ~hi:(S.length loaded)))

(* ---------- windowed reader ---------- *)

(* between agrees with the boxed binary search, including an empty
   window and one spanning a day edge. *)
let between_windows () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  let check_range label ~t0_s ~t1_s =
    let lo, hi = S.between soa ~t0_s ~t1_s in
    check_requests_equal label
      (T.between trace ~t0_s ~t1_s)
      (S.window_requests soa ~lo ~hi)
  in
  let day = T.seconds_per_day in
  check_range "empty window" ~t0_s:(2.0 *. day +. 0.25) ~t1_s:(2.0 *. day +. 0.25);
  check_range "day edge" ~t0_s:(1.5 *. day) ~t1_s:(2.5 *. day);
  check_range "full horizon" ~t0_s:0.0 ~t1_s:(7.0 *. day);
  check_range "before start" ~t0_s:(-10.0) ~t1_s:0.0;
  check_range "past end" ~t0_s:(7.0 *. day) ~t1_s:(8.0 *. day);
  (* between_days matches the boxed day slicing over every day edge. *)
  for d = 0 to 6 do
    let lo, hi = S.between_days soa ~day_lo:d ~day_hi:(d + 1) in
    check_requests_equal
      (Printf.sprintf "day %d" d)
      (T.between_days trace ~day_lo:d ~day_hi:(d + 1))
      (S.window_requests soa ~lo ~hi)
  done

(* iter_windows tiles the store exactly: every row once, in order, no
   chunk larger than the window. *)
let iter_windows_tiling () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  let n = S.length soa in
  List.iter
    (fun window ->
      let expected = ref 0 in
      S.iter_windows soa ~window ~f:(fun ~lo ~hi ->
          Alcotest.(check int) "chunks are contiguous" !expected lo;
          Alcotest.(check bool) "chunk non-empty" true (hi > lo);
          Alcotest.(check bool) "chunk within window" true (hi - lo <= window);
          expected := hi);
      Alcotest.(check int) "covers every row" n !expected)
    [ 1; 7; n; n + 100 ];
  (* Empty store: no calls. *)
  let empty =
    S.of_columns ~n_vhos:4 ~days:7 ~times:[||] ~vhos:[||] ~videos:[||]
  in
  S.iter_windows empty ~window:8 ~f:(fun ~lo:_ ~hi:_ ->
      Alcotest.fail "no windows expected on an empty store")

(* ---------- demand extraction ---------- *)

let demand_of_soa_matches_of_requests () =
  let g, _, catalog, trace = sim_world () in
  let n_vhos = Vod_topology.Graph.n_nodes g in
  let soa = S.of_trace trace in
  let lo, hi = S.between_days soa ~day_lo:0 ~day_hi:7 in
  let from_soa =
    Vod_workload.Demand.of_soa catalog ~n_vhos ~day0:0 ~days:7 ~n_windows:2
      ~window_s:3600.0 soa ~lo ~hi
  in
  let from_requests =
    Vod_workload.Demand.of_requests catalog ~n_vhos ~day0:0 ~days:7
      ~n_windows:2 ~window_s:3600.0
      (T.between_days trace ~day_lo:0 ~day_hi:7)
  in
  Alcotest.(check bool) "demand models equal" true (from_soa = from_requests)

(* ---------- serving engines ---------- *)

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
  Alcotest.(check bool) "per-vho local" true
    (a.M.per_vho_local = b.M.per_vho_local);
  Alcotest.(check bool) "link-load matrix byte-equal" true
    (a.M.link_load = b.M.link_load)

let faulted_config () =
  let horizon = 7.0 *. T.seconds_per_day in
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

let check_windows_equal a b =
  Alcotest.(check int) "window count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Vod_resil.Playout.window) (y : Vod_resil.Playout.window) ->
      Alcotest.(check string) "trigger" x.Vod_resil.Playout.trigger
        y.Vod_resil.Playout.trigger;
      Alcotest.(check int) "window requests" x.Vod_resil.Playout.requests
        y.Vod_resil.Playout.requests;
      Alcotest.(check int) "window rejections" x.Vod_resil.Playout.rejections
        y.Vod_resil.Playout.rejections;
      Alcotest.(check int) "window failovers" x.Vod_resil.Playout.failovers
        y.Vod_resil.Playout.failovers;
      Alcotest.(check bool) "window bounds bit-equal" true
        (x.Vod_resil.Playout.t0_s = y.Vod_resil.Playout.t0_s
        && x.Vod_resil.Playout.t1_s = y.Vod_resil.Playout.t1_s))
    a b

let check_degradation_equal (a : M.t) (b : M.t) =
  let da = a.M.deg and db = b.M.deg in
  Alcotest.(check int) "rejections" da.M.rejections db.M.rejections;
  Alcotest.(check int) "vho down" da.M.rejected_vho_down db.M.rejected_vho_down;
  Alcotest.(check int) "no replica" da.M.rejected_no_replica
    db.M.rejected_no_replica;
  Alcotest.(check int) "unreachable" da.M.rejected_unreachable
    db.M.rejected_unreachable;
  Alcotest.(check int) "no capacity" da.M.rejected_no_capacity
    db.M.rejected_no_capacity;
  Alcotest.(check int) "failovers" da.M.failovers db.M.failovers;
  Alcotest.(check int) "extra hops" da.M.failover_extra_hops
    db.M.failover_extra_hops;
  Alcotest.(check int) "origin served" da.M.origin_served db.M.origin_served;
  Alcotest.(check bool) "saturation bit-equal" true
    (da.M.link_saturated_s = db.M.link_saturated_s)

(* The serving loop over a store, the same loop over the boxed trace,
   and the fixed-path reference engine (Sim.run) agree byte-for-byte. *)
let loop_soa_matches_loop_direct () =
  let g, paths, catalog, trace = sim_world () in
  let record_from = 1.0 *. T.seconds_per_day in
  let reference =
    Vod_sim.Sim.run ~graph:g ~paths ~catalog ~fleet:(lru_fleet paths catalog)
      ~trace ~record_from ()
  in
  let arr, arr_w =
    Vod_serve.Loop.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace ~record_from ()
  in
  let soa, soa_w =
    Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~store:(S.of_trace trace) ~record_from
      ()
  in
  check_metrics_equal reference soa;
  check_degradation_equal reference soa;
  check_metrics_equal arr soa;
  Alcotest.(check bool) "no windows in direct mode" true
    (soa_w = [] && arr_w = [])

(* Faulted: the loop over a store, over the boxed trace, and the
   resilience reference engine (Playout.run) agree — degradation
   counters, saturation and event windows included. *)
let loop_soa_matches_loop_faulted () =
  let g, paths, catalog, trace = sim_world () in
  let config = faulted_config () in
  let reference, reference_w =
    Vod_resil.Playout.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace config
  in
  let arr, arr_w =
    Vod_serve.Loop.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace ~resil:config ()
  in
  let soa, soa_w =
    Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~store:(S.of_trace trace) ~resil:config
      ()
  in
  check_metrics_equal reference soa;
  check_degradation_equal reference soa;
  Alcotest.(check bool) "faulted something" true (soa.M.deg.M.rejections > 0);
  check_windows_equal reference_w soa_w;
  check_metrics_equal arr soa;
  check_degradation_equal arr soa;
  check_windows_equal arr_w soa_w

(* Loop.play serves an array batch through a fixed staging store a
   chunk at a time; on a trace several chunks long, Loop.run still
   reproduces both reference engines. *)
let loop_run_across_chunks () =
  let g, paths, catalog, trace = sim_world ~mean_daily_requests:2000.0 () in
  Alcotest.(check bool) "trace spans several staging chunks" true
    (T.length trace > 3 * 4096);
  let direct, _ =
    Vod_serve.Loop.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace ()
  in
  check_metrics_equal
    (Vod_sim.Sim.run ~graph:g ~paths ~catalog ~fleet:(lru_fleet paths catalog)
       ~trace ())
    direct;
  let config = faulted_config () in
  let faulted, faulted_w =
    Vod_serve.Loop.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace ~resil:config ()
  in
  let reference, reference_w =
    Vod_resil.Playout.run ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ~trace config
  in
  check_metrics_equal reference faulted;
  check_degradation_equal reference faulted;
  check_windows_equal reference_w faulted_w

(* Segment-wise playout through play_soa (the pipeline's and the
   daemon's pattern) is the whole-trace playout in both configurations:
   ranges from between_days tile the store, and the fault timeline and
   its windows carry across segment boundaries. *)
let play_soa_segments_match_whole () =
  let g, paths, catalog, trace = sim_world () in
  let soa = S.of_trace trace in
  let fresh () =
    M.create
      ~n_links:(Vod_topology.Graph.n_links g)
      ~n_vhos:(Vod_topology.Graph.n_nodes g)
      ~horizon_s:(7.0 *. T.seconds_per_day) ()
  in
  let engine resil =
    Vod_serve.Loop.create ~graph:g ~paths ~catalog
      ~fleet:(lru_fleet paths catalog) ?resil ()
  in
  List.iter
    (fun resil ->
      let whole = fresh () in
      let engine1 = engine resil in
      Vod_serve.Loop.play_soa engine1 whole soa ~lo:0 ~hi:(S.length soa);
      Vod_serve.Loop.finish engine1 whole;
      let seg = fresh () in
      let engine2 = engine resil in
      List.iter
        (fun (day_lo, day_hi) ->
          let lo, hi = S.between_days soa ~day_lo ~day_hi in
          Vod_serve.Loop.play_soa engine2 seg soa ~lo ~hi)
        [ (0, 2); (2, 3); (3, 7) ];
      Vod_serve.Loop.finish engine2 seg;
      check_metrics_equal whole seg;
      check_degradation_equal whole seg;
      check_windows_equal
        (Vod_serve.Loop.windows engine1)
        (Vod_serve.Loop.windows engine2))
    [ None; Some (faulted_config ()) ]

(* ---------- validation ---------- *)

let rejects_bad_rows () =
  Alcotest.check_raises "vho out of range"
    (Invalid_argument "Trace_soa: vho out of range") (fun () ->
      ignore
        (S.of_columns ~n_vhos:4 ~days:7 ~times:[| 1.0 |] ~vhos:[| 4 |]
           ~videos:[| 0 |]));
  let soa =
    S.of_columns ~n_vhos:4 ~days:7 ~times:[| 1.0 |] ~vhos:[| 1 |]
      ~videos:[| 0 |]
  in
  Alcotest.check_raises "bad range"
    (Invalid_argument "Trace_soa.window_requests: range out of bounds")
    (fun () -> ignore (S.window_requests soa ~lo:0 ~hi:2))

let suite =
  [
    Alcotest.test_case "of_trace/to_trace round-trip" `Quick (fun () ->
        roundtrip_of_to_trace ());
    Alcotest.test_case "generate_soa = generate" `Quick (fun () ->
        generate_soa_matches_generate ());
    Alcotest.test_case "generate_soa jobs-invariant" `Quick (fun () ->
        generate_soa_jobs_invariant ());
    Alcotest.test_case "CSV round-trip (streaming)" `Quick (fun () ->
        csv_roundtrip_soa ());
    Alcotest.test_case "between: empty/day-edge windows" `Quick (fun () ->
        between_windows ());
    Alcotest.test_case "iter_windows tiles exactly" `Quick (fun () ->
        iter_windows_tiling ());
    Alcotest.test_case "Demand.of_soa = of_requests" `Quick (fun () ->
        demand_of_soa_matches_of_requests ());
    Alcotest.test_case "Loop.run_soa = Loop.run (direct)" `Quick (fun () ->
        loop_soa_matches_loop_direct ());
    Alcotest.test_case "Loop.run_soa = Loop.run (faulted)" `Quick (fun () ->
        loop_soa_matches_loop_faulted ());
    Alcotest.test_case "Loop.run across staging chunks" `Quick (fun () ->
        loop_run_across_chunks ());
    Alcotest.test_case "segmented play_soa = whole" `Quick (fun () ->
        play_soa_segments_match_whole ());
    Alcotest.test_case "validation errors" `Quick (fun () ->
        rejects_bad_rows ());
  ]
