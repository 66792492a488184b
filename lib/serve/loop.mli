(** The serving engine: one request loop, over rows of a compact
    struct-of-arrays store ({!Vod_workload.Trace_soa}), in two
    configurations. The direct configuration serves every request by
    the fleet's own choice over the fixed paths; the faulted one adds a
    fault timeline, capacity tracking and failover routing, plugged in
    through an optional [Vod_resil.Playout.config]. Array batches
    ({!play}, {!run}) are copied into a store and served by the same
    loop. The placement source is the mutable fleet ({!set_fleet} swaps
    placements mid-run).

    Both configurations reproduce the reference engines byte-for-byte:
    [Vod_sim.Sim] (direct) and [Vod_resil.Playout] (faulted), which
    are kept only for that comparison (test/test_serve.ml,
    test/test_soa.ml). Telemetry goes to the [serve/*] keys
    (METRICS.md). *)

type t

(** [create ~graph ~paths ~catalog ~fleet ?resil ()] builds a loop over
    the fixed routing. Without [resil] the loop runs the direct
    configuration; with it, the fault timeline, capacity tracker and
    failover router are instantiated exactly as [Vod_resil.Playout.create]
    does. Raises [Invalid_argument] if the schedule references ids
    outside the topology. *)
val create :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  fleet:Vod_cache.Fleet.t ->
  ?resil:Vod_resil.Playout.config ->
  unit ->
  t

(** The fleet currently being driven. *)
val fleet : t -> Vod_cache.Fleet.t

(** Swap the placement the loop serves from — the placement-source seam
    the re-placement daemon uses after each replan. *)
val set_fleet : t -> Vod_cache.Fleet.t -> unit

(** Whether a VHO is currently up ([true] always in the direct
    configuration) — the fault-state read the daemon's replanner uses
    to steer demand away from dark VHOs. *)
val vho_up : t -> int -> bool

(** Advance the fault timeline (and expire stream reservations) to
    [now] without playing a request, applying any pending events — the
    daemon's replan boundaries use this so {!vho_up} reflects the
    boundary instant. No-op in the direct configuration. *)
val advance : t -> now:float -> unit

(** Play one time-sorted request batch, accumulating into the metrics:
    the batch is validated, then copied in array order, a fixed-size
    chunk at a time, into a staging store the loop owns, and served by
    the same loop as {!play_soa}.
    Raises [Invalid_argument] on VHO ids outside the metrics arrays. *)
val play :
  t -> Vod_sim.Metrics.t -> Vod_workload.Trace.request array -> unit

(** Play rows [[lo, hi)) of a compact struct-of-arrays store, iterated
    by index with no boxed request and no per-row closure in either
    configuration. Byte-identical metrics to {!play} on the equivalent
    request slice (asserted by test/test_soa.ml). Raises
    [Invalid_argument] on a bad range or a store whose VHO bound
    exceeds the metrics arrays. *)
val play_soa :
  t -> Vod_sim.Metrics.t -> Vod_workload.Trace_soa.t -> lo:int -> hi:int -> unit

(** Drain the remaining fault schedule up to the metrics horizon, close
    saturation intervals and the final window, publish end-of-run
    gauges. Idempotent; a no-op in the direct configuration. *)
val finish : t -> Vod_sim.Metrics.t -> unit

(** Event windows closed so far, oldest first (complete after
    {!finish}); [[]] in the direct configuration. *)
val windows : t -> Vod_resil.Playout.window list

(** One-shot playout of a full trace (metrics creation mirrors
    [Vod_sim.Sim.run]). *)
val run :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  fleet:Vod_cache.Fleet.t ->
  trace:Vod_workload.Trace.t ->
  ?bin_s:float ->
  ?record_from:float ->
  ?resil:Vod_resil.Playout.config ->
  unit ->
  Vod_sim.Metrics.t * Vod_resil.Playout.window list

(** One-shot playout of a full compact store ({!run} over a store). *)
val run_soa :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  fleet:Vod_cache.Fleet.t ->
  store:Vod_workload.Trace_soa.t ->
  ?bin_s:float ->
  ?record_from:float ->
  ?resil:Vod_resil.Playout.config ->
  unit ->
  Vod_sim.Metrics.t * Vod_resil.Playout.window list
