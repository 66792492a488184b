(** Reference trace playout: drives a fleet with time-sorted requests,
    streaming remote fetches over every link of the fixed path for the
    playback duration. Serving code uses [Vod_serve.Loop], whose direct
    configuration reproduces this engine's metrics byte-for-byte; this
    module stays as the independent reference the tests compare
    against. *)

(** Incremental playout of one time-sorted batch into existing
    metrics. *)
val play :
  Metrics.t ->
  Vod_topology.Paths.t ->
  Vod_workload.Catalog.t ->
  Vod_cache.Fleet.t ->
  Vod_workload.Trace.request array ->
  unit

(** One-shot playout of a full trace. [record_from] excludes the cache
    warm-up period from the counters and link loads. *)
val run :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  fleet:Vod_cache.Fleet.t ->
  trace:Vod_workload.Trace.t ->
  ?bin_s:float ->
  ?record_from:float ->
  unit ->
  Metrics.t
