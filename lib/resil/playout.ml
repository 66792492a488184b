(* The resilience reference playout: the fixed-path playout
   (lib/sim/sim.ml) extended with a fault timeline, capacity-aware
   failover routing and degradation accounting. With an empty schedule
   and infinite link capacity it reproduces Sim's metrics byte-for-byte
   (asserted by test/test_resil.ml): the router then always picks the
   fleet's own fault-free choice over the same fixed paths, and the
   capacity tracker is a no-op.

   Production serving goes through Vod_serve.Loop, whose faulted
   configuration reproduces this engine; [play]/[run] are kept as the
   independent reference the tests compare it against. [config] and
   [window] are the types that configuration and its report share. *)

module Obs = Vod_obs.Obs

type config = {
  schedule : Event.schedule;
  link_capacity_mbps : float;   (* uniform per directed link; infinity = off *)
  origin : int option;          (* last-resort full-library VHO *)
  saturation_frac : float;
}

let config ?(schedule = Event.empty) ?(link_capacity_mbps = Float.infinity)
    ?origin ?(saturation_frac = 0.95) () =
  { schedule; link_capacity_mbps; origin; saturation_frac }

(* Per-event-window serving deltas: one window per applied event (plus
   the leading fault-free window), so a report can show how much each
   outage or repair cost. *)
type window = {
  t0_s : float;
  t1_s : float;
  trigger : string;    (* "start" or the event that opened the window *)
  requests : int;
  rejections : int;
  failovers : int;
}

type t = {
  state : State.t;
  capacity : Capacity.t;
  router : Router.t;
  mutable win_t0 : float;
  mutable win_trigger : string;
  mutable win_requests : int;
  mutable win_rejections : int;
  mutable win_failovers : int;
  mutable windows_rev : window list;
  mutable finished : bool;
}

let create ~graph ~paths (cfg : config) =
  let n_links = Vod_topology.Graph.n_links graph in
  let state =
    State.create ~n_vhos:(Vod_topology.Graph.n_nodes graph) ~n_links cfg.schedule
  in
  let capacity =
    Capacity.create
      ~capacity_mbps:(Array.make n_links cfg.link_capacity_mbps)
      ~saturation_frac:cfg.saturation_frac ()
  in
  let router =
    Router.create ~graph ~paths ~state ~capacity ?origin:cfg.origin ()
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
    finished = false;
  }

let close_window t ~now ~trigger =
  t.windows_rev <-
    {
      t0_s = t.win_t0;
      t1_s = now;
      trigger = t.win_trigger;
      requests = t.win_requests;
      rejections = t.win_rejections;
      failovers = t.win_failovers;
    }
    :: t.windows_rev;
  Obs.push "resil/window/requests" (float_of_int t.win_requests);
  Obs.push "resil/window/rejections" (float_of_int t.win_rejections);
  Obs.push "resil/window/failovers" (float_of_int t.win_failovers);
  t.win_t0 <- now;
  t.win_trigger <- trigger;
  t.win_requests <- 0;
  t.win_rejections <- 0;
  t.win_failovers <- 0

let on_event t (e : Event.t) =
  Obs.incr "resil/events_applied";
  (match e.Event.kind with
  | Event.Link_down _ | Event.Link_up _ -> Router.on_link_event t.router
  | Event.Vho_down _ | Event.Vho_up _ | Event.Surge_start _ | Event.Surge_end _
    -> ());
  close_window t ~now:e.Event.time_s ~trigger:(Event.kind_to_string e.Event.kind)

let reject_obs reason =
  Obs.incr "resil/rejections";
  Obs.incr ("resil/rejections/" ^ Router.reject_reason_to_string reason)

let account_reject (metrics : Vod_sim.Metrics.t) (reason : Router.reject_reason) =
  let deg = metrics.Vod_sim.Metrics.deg in
  deg.Vod_sim.Metrics.rejections <- deg.Vod_sim.Metrics.rejections + 1;
  (match reason with
  | Router.Vho_down ->
      deg.Vod_sim.Metrics.rejected_vho_down <-
        deg.Vod_sim.Metrics.rejected_vho_down + 1
  | Router.No_replica ->
      deg.Vod_sim.Metrics.rejected_no_replica <-
        deg.Vod_sim.Metrics.rejected_no_replica + 1
  | Router.Unreachable ->
      deg.Vod_sim.Metrics.rejected_unreachable <-
        deg.Vod_sim.Metrics.rejected_unreachable + 1
  | Router.No_capacity ->
      deg.Vod_sim.Metrics.rejected_no_capacity <-
        deg.Vod_sim.Metrics.rejected_no_capacity + 1);
  reject_obs reason

(* Hoisted out of the request loop: defining this as a local function
   per request allocated a closure per request (alloc-in-hot). *)
let count_request metrics ~track_per_vho ~vho =
  metrics.Vod_sim.Metrics.requests <- metrics.Vod_sim.Metrics.requests + 1;
  if track_per_vho then
    metrics.Vod_sim.Metrics.per_vho_requests.(vho) <-
      metrics.Vod_sim.Metrics.per_vho_requests.(vho) + 1

(* Play a time-sorted request batch through [fleet] under the fault
   timeline, accumulating into [metrics]. Mirrors Vod_sim.Sim.play's
   accounting exactly in the served cases. *)
let play t metrics (catalog : Vod_workload.Catalog.t) fleet
    (requests : Vod_workload.Trace.request array) =
  Vod_sim.Metrics.validate_vhos metrics requests;
  let track_per_vho =
    Array.length metrics.Vod_sim.Metrics.per_vho_requests > 0
  in
  let deg = metrics.Vod_sim.Metrics.deg in
  Array.iter
    (fun (r : Vod_workload.Trace.request) ->
      let now = r.Vod_workload.Trace.time_s in
      let video = r.Vod_workload.Trace.video in
      let vho = r.Vod_workload.Trace.vho in
      ignore (State.advance t.state ~now ~on_event:(on_event t) : int);
      Capacity.expire t.capacity ~now;
      let record = Vod_sim.Metrics.in_record_window metrics now in
      if record then t.win_requests <- t.win_requests + 1;
      if not (State.vho_up t.state vho) then begin
        (* The requesting VHO is dark: nobody there to serve. *)
        if record then begin
          count_request metrics ~track_per_vho ~vho;
          account_reject metrics Router.Vho_down;
          t.win_rejections <- t.win_rejections + 1
        end
      end
      else begin
        let v = Vod_workload.Catalog.video catalog video in
        let surge = State.surge t.state vho in
        let rate = Vod_workload.Video.rate_mbps v *. surge in
        let dur = Vod_workload.Video.duration_s v in
        let decision = ref (Router.Rejected Router.No_replica) in
        let route ~default =
          let d =
            Router.route t.router
              ~holders:(Vod_cache.Fleet.holders fleet ~video)
              ~dst:vho ~default ~rate_mbps:rate ~until_s:(now +. dur) ~now
          in
          decision := d;
          match d with
          | Router.Served s -> Some s.Router.server
          | Router.Rejected _ -> None
        in
        match Vod_cache.Fleet.serve_routed fleet ~video ~vho ~now ~route with
        | Some outcome ->
            if record then begin
              count_request metrics ~track_per_vho ~vho;
              if outcome.Vod_cache.Fleet.local then begin
                metrics.Vod_sim.Metrics.local_served <-
                  metrics.Vod_sim.Metrics.local_served + 1;
                if track_per_vho then
                  metrics.Vod_sim.Metrics.per_vho_local.(vho) <-
                    metrics.Vod_sim.Metrics.per_vho_local.(vho) + 1;
                if outcome.Vod_cache.Fleet.cache_hit then
                  metrics.Vod_sim.Metrics.cache_hits <-
                    metrics.Vod_sim.Metrics.cache_hits + 1
              end
              else begin
                metrics.Vod_sim.Metrics.remote_served <-
                  metrics.Vod_sim.Metrics.remote_served + 1;
                if outcome.Vod_cache.Fleet.not_cachable then
                  metrics.Vod_sim.Metrics.not_cachable <-
                    metrics.Vod_sim.Metrics.not_cachable + 1
              end
            end;
            if not outcome.Vod_cache.Fleet.local then begin
              match !decision with
              | Router.Served s ->
                  (* Explicit loop: an [Array.iter] lambda here is a
                     fresh closure per served remote request
                     (alloc-in-hot). *)
                  let t1 = now +. dur in
                  let links = s.Router.links in
                  for i = 0 to Array.length links - 1 do
                    Vod_sim.Metrics.add_stream metrics ~link:links.(i)
                      ~rate_mbps:rate ~t0:now ~t1
                  done;
                  if record then begin
                    let hops = float_of_int s.Router.hops in
                    let gb = Vod_workload.Video.size_gb v *. surge in
                    metrics.Vod_sim.Metrics.total_gb_hops <-
                      metrics.Vod_sim.Metrics.total_gb_hops +. (gb *. hops);
                    metrics.Vod_sim.Metrics.total_gb_remote <-
                      metrics.Vod_sim.Metrics.total_gb_remote +. gb;
                    if surge > 1.0 then Obs.incr "resil/surged_streams";
                    if s.Router.failover then begin
                      deg.Vod_sim.Metrics.failovers <-
                        deg.Vod_sim.Metrics.failovers + 1;
                      deg.Vod_sim.Metrics.failover_extra_hops <-
                        deg.Vod_sim.Metrics.failover_extra_hops
                        + s.Router.extra_hops;
                      t.win_failovers <- t.win_failovers + 1;
                      Obs.incr "resil/failovers";
                      if s.Router.extra_hops > 0 then
                        Obs.incr ~by:s.Router.extra_hops
                          "resil/failover_extra_hops"
                    end;
                    if s.Router.via_origin then begin
                      deg.Vod_sim.Metrics.origin_served <-
                        deg.Vod_sim.Metrics.origin_served + 1;
                      Obs.incr "resil/origin_served"
                    end
                  end
              | Router.Rejected _ ->
                  (* serve_routed returned an outcome, so route said yes *)
                  invalid_arg "Playout.play: served without a routing decision"
            end
        | None ->
            if record then begin
              count_request metrics ~track_per_vho ~vho;
              (match !decision with
              | Router.Rejected reason -> account_reject metrics reason
              | Router.Served _ ->
                  invalid_arg "Playout.play: rejected with a serving decision");
              t.win_rejections <- t.win_rejections + 1
            end
      end)
    requests

(* Drain the remaining schedule, close saturation intervals and the last
   window, and publish the end-of-run gauges. Idempotent. *)
let finish t (metrics : Vod_sim.Metrics.t) =
  if not t.finished then begin
    t.finished <- true;
    let horizon =
      float_of_int metrics.Vod_sim.Metrics.n_bins *. metrics.Vod_sim.Metrics.bin_s
    in
    ignore (State.advance t.state ~now:horizon ~on_event:(on_event t) : int);
    Capacity.expire t.capacity ~now:horizon;
    Capacity.finish t.capacity ~now:horizon;
    metrics.Vod_sim.Metrics.deg.Vod_sim.Metrics.link_saturated_s <-
      Capacity.saturated_seconds t.capacity;
    Obs.set_gauge "resil/link_saturated_seconds"
      (Capacity.saturated_seconds t.capacity);
    close_window t ~now:horizon ~trigger:"end"
  end

let windows t = List.rev t.windows_rev

(* One-shot playout of a full trace; mirrors Vod_sim.Sim.run's metrics
   creation exactly so the fault-free configurations coincide. *)
let run ~graph ~paths ~catalog ~fleet ~trace ?(bin_s = 300.0)
    ?(record_from = 0.0) (cfg : config) =
  let horizon_s =
    float_of_int trace.Vod_workload.Trace.days
    *. Vod_workload.Trace.seconds_per_day
  in
  let metrics =
    Vod_sim.Metrics.create
      ~n_links:(Vod_topology.Graph.n_links graph)
      ~n_vhos:(Vod_topology.Graph.n_nodes graph)
      ~horizon_s ~bin_s ~record_from ()
  in
  let t = create ~graph ~paths cfg in
  (* [play] can raise (request validation); [finish] is idempotent, so
     settling the ledger under Fun.protect keeps the normal path
     byte-identical while closing it on the exceptional one. *)
  Fun.protect
    ~finally:(fun () -> finish t metrics)
    (fun () -> play t metrics catalog fleet trace.Vod_workload.Trace.requests);
  (metrics, windows t)
