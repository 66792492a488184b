(** Resilience reference playout: the fixed-path playout extended with a
    fault timeline ({!Event}), capacity-aware failover routing
    ({!Router}) and degradation accounting
    ({!Vod_sim.Metrics.degradation}). With an empty schedule and infinite
    link capacity it reproduces [Vod_sim.Sim.run]'s metrics
    byte-for-byte.

    Serving code uses [Vod_serve.Loop] with a {!config}; its faulted
    configuration reproduces {!play}/{!run} byte-for-byte, and this
    engine stays as the independent reference the tests compare
    against. {!config} and {!window} are shared with that loop. *)

type config = {
  schedule : Event.schedule;
  link_capacity_mbps : float;
      (** uniform per-directed-link budget; [infinity] disables tracking *)
  origin : int option;  (** optional last-resort full-library VHO *)
  saturation_frac : float;
}

(** Build a config; defaults: empty schedule, infinite capacity, no
    origin, saturation at 95% of capacity. *)
val config :
  ?schedule:Event.schedule ->
  ?link_capacity_mbps:float ->
  ?origin:int ->
  ?saturation_frac:float ->
  unit ->
  config

(** Per-event-window serving deltas: one window per applied event plus
    the leading fault-free window and the closing ["end"] window. *)
type window = {
  t0_s : float;
  t1_s : float;
  trigger : string;
  requests : int;
  rejections : int;
  failovers : int;
}

type t

(** Fresh playout over the base fixed routing. Raises
    [Invalid_argument] if the schedule references ids outside the
    topology. *)
val create : graph:Vod_topology.Graph.t -> paths:Vod_topology.Paths.t -> config -> t

(** Incremental playout of one time-sorted batch; accounting matches
    [Vod_sim.Sim.play] for served requests and adds
    rejection/failover/degradation counters. *)
val play :
  t ->
  Vod_sim.Metrics.t ->
  Vod_workload.Catalog.t ->
  Vod_cache.Fleet.t ->
  Vod_workload.Trace.request array ->
  unit

(** Drain the remaining schedule, close saturation intervals, publish
    end-of-run degradation gauges and the final window. Idempotent;
    call once after the last [play] batch. *)
val finish : t -> Vod_sim.Metrics.t -> unit

(** Windows closed so far, in time order (complete after [finish]). *)
val windows : t -> window list

(** One-shot playout of a full trace; mirrors [Vod_sim.Sim.run]. *)
val run :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  fleet:Vod_cache.Fleet.t ->
  trace:Vod_workload.Trace.t ->
  ?bin_s:float ->
  ?record_from:float ->
  config ->
  Vod_sim.Metrics.t * window list
