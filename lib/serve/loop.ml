(* The serving engine: one request loop over rows [lo, hi) of a
   struct-of-arrays request store drives a fleet, in either of two
   configurations.

   - Direct: fixed-path playout — every request is served by the
     fleet's own choice over the precomputed shortest paths, with no
     fault timeline and no capacity tracking.
   - Faulted: a fault timeline advances between requests,
     rejected/failover/degradation accounting applies, and remote
     streams route through the capacity-aware failover router.

   Array callers ([play], [run]) copy their batch into a store first
   (16 bytes per request) and share the same loop. Both configurations
   produce Vod_sim.Metrics byte-for-byte identical to the reference
   engines Vod_sim.Sim (direct) and Vod_resil.Playout (faulted),
   asserted by test/test_serve.ml and test/test_soa.ml. The placement
   source is the mutable [fleet] (swapped mid-run by the re-placement
   daemon via [set_fleet]); the router/capacity
   pair arrives bundled in an optional [Vod_resil.Playout.config]. *)

module Obs = Vod_obs.Obs
module Event = Vod_resil.Event
module State = Vod_resil.State
module Capacity = Vod_resil.Capacity
module Router = Vod_resil.Router
module Playout = Vod_resil.Playout
module Metrics = Vod_sim.Metrics
module Trace_soa = Vod_workload.Trace_soa

let src = Logs.Src.create "vod.serve" ~doc:"serving engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Fault-mode machinery plus per-request routing scratch: [route] and
   [on_event] are built once at [create] and read the current request's
   parameters out of the record, so the request loop allocates no
   closure or ref cell per request (alloc-in-hot). *)
type faulted = {
  state : State.t;
  capacity : Capacity.t;
  router : Router.t;
  mutable win_t0 : float;
  mutable win_trigger : string;
  mutable win_requests : int;
  mutable win_rejections : int;
  mutable win_failovers : int;
  mutable windows_rev : Playout.window list;
  mutable cur_video : int;
  mutable cur_vho : int;
  mutable cur_rate : float;
  mutable cur_now : float;
  mutable cur_until : float;
  mutable decision : Router.decision;
  mutable route : default:int -> int option;
  mutable on_event : Event.t -> unit;
}

type t = {
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  mutable fleet : Vod_cache.Fleet.t;
  faulted : faulted option;
  mutable finished : bool;
  staging : Trace_soa.t;  (* array batches are played through this *)
}

(* Rows of the staging store: array batches are copied and served this
   many requests at a time (64 KB of columns per loop). *)
let staging_rows = 4096

let close_window f ~now ~trigger =
  f.windows_rev <-
    {
      Playout.t0_s = f.win_t0;
      t1_s = now;
      trigger = f.win_trigger;
      requests = f.win_requests;
      rejections = f.win_rejections;
      failovers = f.win_failovers;
    }
    :: f.windows_rev;
  Obs.push "serve/window/requests" (float_of_int f.win_requests);
  Obs.push "serve/window/rejections" (float_of_int f.win_rejections);
  Obs.push "serve/window/failovers" (float_of_int f.win_failovers);
  f.win_t0 <- now;
  f.win_trigger <- trigger;
  f.win_requests <- 0;
  f.win_rejections <- 0;
  f.win_failovers <- 0

let apply_event f (e : Event.t) =
  Obs.incr "serve/events_applied";
  (match e.Event.kind with
  | Event.Link_down _ | Event.Link_up _ -> Router.on_link_event f.router
  | Event.Vho_down _ | Event.Vho_up _ | Event.Surge_start _ | Event.Surge_end _
    -> ());
  close_window f ~now:e.Event.time_s ~trigger:(Event.kind_to_string e.Event.kind)

(* Route the request whose parameters sit in the scratch fields; the
   decision is parked for the stream-accounting step. *)
let route_scratch t f ~default =
  let d =
    Router.route f.router
      ~holders:(Vod_cache.Fleet.holders t.fleet ~video:f.cur_video)
      ~dst:f.cur_vho ~default ~rate_mbps:f.cur_rate ~until_s:f.cur_until
      ~now:f.cur_now
  in
  f.decision <- d;
  match d with
  | Router.Served s -> Some s.Router.server
  | Router.Rejected _ -> None

(* The direct configuration's route: the fleet's own fault-free choice,
   exactly what [Fleet.serve] does. Toplevel, so it is not a closure
   allocated per batch. *)
let fleet_choice ~default = Some default

let create ~graph ~paths ~catalog ~fleet ?resil () =
  let faulted =
    Option.map
      (fun (cfg : Playout.config) ->
        let n_links = Vod_topology.Graph.n_links graph in
        let state =
          State.create
            ~n_vhos:(Vod_topology.Graph.n_nodes graph)
            ~n_links cfg.Playout.schedule
        in
        let capacity =
          Capacity.create
            ~capacity_mbps:(Array.make n_links cfg.Playout.link_capacity_mbps)
            ~saturation_frac:cfg.Playout.saturation_frac ()
        in
        let router =
          Router.create ~graph ~paths ~state ~capacity ?origin:cfg.Playout.origin
            ()
        in
        {
          state;
          capacity;
          router;
          win_t0 = 0.0;
          win_trigger = "start";
          win_requests = 0;
          win_rejections = 0;
          win_failovers = 0;
          windows_rev = [];
          cur_video = 0;
          cur_vho = 0;
          cur_rate = 0.0;
          cur_now = 0.0;
          cur_until = 0.0;
          decision = Router.Rejected Router.No_replica;
          route = fleet_choice;
          on_event = (fun (_ : Event.t) -> ());
        })
      resil
  in
  let t =
    {
      paths;
      catalog;
      fleet;
      faulted;
      finished = false;
      staging = Trace_soa.create ~n_vhos:0 ~days:0 staging_rows;
    }
  in
  (match t.faulted with
  | Some f ->
      f.route <- (fun ~default -> route_scratch t f ~default);
      f.on_event <- (fun e -> apply_event f e)
  | None -> ());
  t

let fleet t = t.fleet

(* Placement-source seam: the daemon swaps placements mid-run by
   handing the loop a rebuilt fleet between segments. *)
let set_fleet t fleet =
  t.fleet <- fleet;
  Obs.incr "serve/fleet_swaps"

let vho_up t vho =
  match t.faulted with None -> true | Some f -> State.vho_up f.state vho

(* Advance the fault timeline (and expire stream reservations) to [now]
   without playing a request — the daemon calls this at replan
   boundaries so its fault-state reads reflect the boundary instant,
   not the last played request. No-op in the direct configuration. *)
let advance t ~now =
  match t.faulted with
  | None -> ()
  | Some f ->
      ignore (State.advance f.state ~now ~on_event:f.on_event : int);
      Capacity.expire f.capacity ~now

(* One literal key per reason: concatenating the key per rejection
   would allocate a string even with no registry installed. *)
let rejection_key = function
  | Router.Vho_down -> "serve/rejections/vho_down"
  | Router.No_replica -> "serve/rejections/no_replica"
  | Router.Unreachable -> "serve/rejections/unreachable"
  | Router.No_capacity -> "serve/rejections/no_capacity"

let account_reject (metrics : Metrics.t) f (reason : Router.reject_reason) =
  let deg = metrics.Metrics.deg in
  deg.Metrics.rejections <- deg.Metrics.rejections + 1;
  (match reason with
  | Router.Vho_down ->
      deg.Metrics.rejected_vho_down <- deg.Metrics.rejected_vho_down + 1
  | Router.No_replica ->
      deg.Metrics.rejected_no_replica <- deg.Metrics.rejected_no_replica + 1
  | Router.Unreachable ->
      deg.Metrics.rejected_unreachable <- deg.Metrics.rejected_unreachable + 1
  | Router.No_capacity ->
      deg.Metrics.rejected_no_capacity <- deg.Metrics.rejected_no_capacity + 1);
  f.win_rejections <- f.win_rejections + 1;
  Obs.incr "serve/rejections";
  Obs.incr (rejection_key reason)

(* The router's record for a stream [serve_routed] accepted: [route]
   said yes, so the parked decision is [Served]. *)
let served_decision f =
  match f.decision with
  | Router.Served s -> s
  | Router.Rejected _ ->
      invalid_arg "Loop.play: served without a routing decision"

(* Failover and origin accounting of one recorded remote stream. *)
let account_served (metrics : Metrics.t) f (s : Router.served) ~surge =
  let deg = metrics.Metrics.deg in
  if surge > 1.0 then Obs.incr "serve/surged_streams";
  if s.Router.failover then begin
    deg.Metrics.failovers <- deg.Metrics.failovers + 1;
    deg.Metrics.failover_extra_hops <-
      deg.Metrics.failover_extra_hops + s.Router.extra_hops;
    f.win_failovers <- f.win_failovers + 1;
    Obs.incr "serve/failovers";
    if s.Router.extra_hops > 0 then
      Obs.incr ~by:s.Router.extra_hops "serve/failover_extra_hops"
  end;
  if s.Router.via_origin then begin
    deg.Metrics.origin_served <- deg.Metrics.origin_served + 1;
    Obs.incr "serve/origin_served"
  end

(* Hoisted out of the request loop (alloc-in-hot): a local definition
   per request would allocate a closure per request. *)
let count_request metrics ~track_per_vho ~vho =
  metrics.Metrics.requests <- metrics.Metrics.requests + 1;
  if track_per_vho then
    metrics.Metrics.per_vho_requests.(vho) <-
      metrics.Metrics.per_vho_requests.(vho) + 1

(* Park the request's routing parameters in the scratch fields read by
   [f.route]; returns the VHO's demand multiplier. *)
let park_request t f ~video ~vho ~now =
  let v = Vod_workload.Catalog.video t.catalog video in
  let surge = State.surge f.state vho in
  f.cur_video <- video;
  f.cur_vho <- vho;
  f.cur_rate <- Vod_workload.Video.rate_mbps v *. surge;
  f.cur_now <- now;
  f.cur_until <- now +. Vod_workload.Video.duration_s v;
  f.decision <- Router.Rejected Router.No_replica;
  surge

(* The request loop: rows [lo, hi) of [soa], iterated by index. The
   faulted configuration adds three things: before serving, the timeline
   advances, reservations expire, the window counts the request and a
   dark VHO rejects it; routing goes through the failover router; and a
   remote stream's links, hops, rate and end time come from the
   router's decision and the parked request instead of the fixed paths
   and the catalog. Direct mode runs with [surge = 1.0], and
   [x *. 1.0 = x] exactly, so the float operation order is that of both
   reference engines. Per-stream work (catalog lookup, path) is done
   only for remote streams, as the fixed-path reference does. *)
let serve_rows t metrics (soa : Trace_soa.t) ~lo ~hi =
  let track_per_vho = Array.length metrics.Metrics.per_vho_requests > 0 in
  let route =
    match t.faulted with None -> fleet_choice | Some f -> f.route
  in
  for i = lo to hi - 1 do
    let now = Trace_soa.time soa i in
    let video = Trace_soa.video soa i in
    let vho = Trace_soa.vho soa i in
    let record = Metrics.in_record_window metrics now in
    let up =
      match t.faulted with
      | None -> true
      | Some f ->
          ignore (State.advance f.state ~now ~on_event:f.on_event : int);
          Capacity.expire f.capacity ~now;
          if record then f.win_requests <- f.win_requests + 1;
          State.vho_up f.state vho
    in
    if not up then begin
      (* The requesting VHO is dark: nobody there to serve. *)
      if record then
        match t.faulted with
        | Some f ->
            count_request metrics ~track_per_vho ~vho;
            account_reject metrics f Router.Vho_down
        | None -> ()
    end
    else begin
      let surge =
        match t.faulted with
        | None -> 1.0
        | Some f -> park_request t f ~video ~vho ~now
      in
      match Vod_cache.Fleet.serve_routed t.fleet ~video ~vho ~now ~route with
      | Some outcome ->
          if record then begin
            count_request metrics ~track_per_vho ~vho;
            if outcome.Vod_cache.Fleet.local then begin
              metrics.Metrics.local_served <- metrics.Metrics.local_served + 1;
              if track_per_vho then
                metrics.Metrics.per_vho_local.(vho) <-
                  metrics.Metrics.per_vho_local.(vho) + 1;
              if outcome.Vod_cache.Fleet.cache_hit then
                metrics.Metrics.cache_hits <- metrics.Metrics.cache_hits + 1
            end
            else begin
              metrics.Metrics.remote_served <-
                metrics.Metrics.remote_served + 1;
              if outcome.Vod_cache.Fleet.not_cachable then
                metrics.Metrics.not_cachable <- metrics.Metrics.not_cachable + 1
            end
          end;
          if not outcome.Vod_cache.Fleet.local then begin
            let server = outcome.Vod_cache.Fleet.server in
            let v = Vod_workload.Catalog.video t.catalog video in
            (match t.faulted with
            | None ->
                Metrics.add_path_stream metrics
                  ~links:(Vod_topology.Paths.path_links t.paths ~src:server ~dst:vho)
                  ~rate_mbps:(Vod_workload.Video.rate_mbps v) ~t0:now
                  ~t1:(now +. Vod_workload.Video.duration_s v)
            | Some f ->
                Metrics.add_path_stream metrics
                  ~links:(served_decision f).Router.links ~rate_mbps:f.cur_rate
                  ~t0:now ~t1:f.cur_until);
            if record then begin
              let hops =
                match t.faulted with
                | None -> Vod_topology.Paths.hops t.paths ~src:server ~dst:vho
                | Some f -> (served_decision f).Router.hops
              in
              let gb = Vod_workload.Video.size_gb v *. surge in
              metrics.Metrics.total_gb_hops <-
                metrics.Metrics.total_gb_hops +. (gb *. float_of_int hops);
              metrics.Metrics.total_gb_remote <-
                metrics.Metrics.total_gb_remote +. gb;
              match t.faulted with
              | None -> ()
              | Some f -> account_served metrics f (served_decision f) ~surge
            end
          end
      | None ->
          (* Only the failover router rejects; [fleet_choice] never does. *)
          if record then
            match t.faulted with
            | Some f ->
                count_request metrics ~track_per_vho ~vho;
                account_reject metrics f
                  (match f.decision with
                  | Router.Rejected reason -> reason
                  | Router.Served _ ->
                      invalid_arg "Loop.play: rejected with a serving decision")
            | None -> ()
    end
  done

(* ---- entry points ------------------------------------------------------ *)

(* Array batches are validated exactly as before (so error messages are
   unchanged), then copied in array order into the loop's fixed staging
   store and served chunk by chunk. Serving state carries across
   [serve_rows] calls, so chunking does not change the result; a store
   sized to the batch would cost a fresh off-heap allocation (and the
   major-GC work its size accounts for) per batch. *)
let play t metrics (requests : Vod_workload.Trace.request array) =
  Metrics.validate_vhos metrics requests;
  let n = Array.length requests in
  if Obs.active () then Obs.incr ~by:n "serve/requests";
  for chunk = 0 to ((n + staging_rows - 1) / staging_rows) - 1 do
    let pos = chunk * staging_rows in
    let len = min staging_rows (n - pos) in
    Trace_soa.blit_requests requests ~pos ~len t.staging;
    serve_rows t metrics t.staging ~lo:0 ~hi:len
  done

let play_soa t metrics (soa : Trace_soa.t) ~lo ~hi =
  if lo < 0 || hi < lo || hi > Trace_soa.length soa then
    invalid_arg "Loop.play_soa: range out of bounds";
  Metrics.validate_store metrics soa;
  if Obs.active () then Obs.incr ~by:(hi - lo) "serve/requests";
  serve_rows t metrics soa ~lo ~hi

(* Drain the remaining schedule, close saturation intervals and the last
   window, and publish the end-of-run gauges. Idempotent; a no-op in the
   direct configuration, which has no timeline to drain. *)
let finish t (metrics : Metrics.t) =
  if not t.finished then begin
    t.finished <- true;
    match t.faulted with
    | None -> ()
    | Some f ->
        let horizon =
          float_of_int metrics.Metrics.n_bins *. metrics.Metrics.bin_s
        in
        ignore (State.advance f.state ~now:horizon ~on_event:f.on_event : int);
        Capacity.expire f.capacity ~now:horizon;
        Capacity.finish f.capacity ~now:horizon;
        metrics.Metrics.deg.Metrics.link_saturated_s <-
          Capacity.saturated_seconds f.capacity;
        Obs.set_gauge "serve/link_saturated_seconds"
          (Capacity.saturated_seconds f.capacity);
        close_window f ~now:horizon ~trigger:"end"
  end

let windows t =
  match t.faulted with None -> [] | Some f -> List.rev f.windows_rev

(* One-shot playout of [days] of requests through [play_all]; metrics
   creation matches Vod_sim.Sim.run's, so the configurations coincide
   with the reference engines. *)
let run_days ~graph ~paths ~catalog ~fleet ~days ~bin_s ~record_from ?resil
    play_all =
  let horizon_s = float_of_int days *. Vod_workload.Trace.seconds_per_day in
  let metrics =
    Metrics.create
      ~n_links:(Vod_topology.Graph.n_links graph)
      ~n_vhos:(Vod_topology.Graph.n_nodes graph)
      ~horizon_s ~bin_s ~record_from ()
  in
  let t = create ~graph ~paths ~catalog ~fleet ?resil () in
  (* Playing can raise (request validation); [finish] is idempotent, so
     settling the capacity ledger under Fun.protect keeps the normal
     path byte-identical while closing it on the exceptional one. *)
  Fun.protect ~finally:(fun () -> finish t metrics) (fun () -> play_all t metrics);
  Log.info (fun m ->
      m "%s: %d requests, local %.1f%%, %d rejections, peak link %.0f Mb/s"
        (Vod_cache.Fleet.name fleet) metrics.Metrics.requests
        (100.0 *. Metrics.local_fraction metrics)
        metrics.Metrics.deg.Metrics.rejections
        (Metrics.max_link_mbps metrics));
  (metrics, windows t)

let run ~graph ~paths ~catalog ~fleet ~trace ?(bin_s = 300.0)
    ?(record_from = 0.0) ?resil () =
  run_days ~graph ~paths ~catalog ~fleet ~days:trace.Vod_workload.Trace.days
    ~bin_s ~record_from ?resil (fun t metrics ->
      play t metrics trace.Vod_workload.Trace.requests)

let run_soa ~graph ~paths ~catalog ~fleet ~store ?(bin_s = 300.0)
    ?(record_from = 0.0) ?resil () =
  run_days ~graph ~paths ~catalog ~fleet ~days:store.Trace_soa.days ~bin_s
    ~record_from ?resil (fun t metrics ->
      play_soa t metrics store ~lo:0 ~hi:(Trace_soa.length store))
