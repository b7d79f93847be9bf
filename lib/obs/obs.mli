(** Observability handle: a {!Trace.t} sink plus a {!Metrics.registry},
    threaded together through the stack.

    Every instrumented component ([Net], [Rbc], [Sailfish], [Faults],
    [Runner]) takes an optional [?obs] argument defaulting to {!disabled},
    so uninstrumented call sites are untouched and pay one branch per
    potential event. One {!t} is shared by every node of a simulated
    deployment: trace events carry the node id, and per-node metrics are
    distinguished by a ["node"] label. *)

type t = {
  trace : Trace.t;
  metrics : Metrics.registry;
}

val disabled : t
(** The default: a {!Trace.null} sink and a registry nobody reads.
    {!tracing} is [false]. *)

val create : unit -> t
(** Fresh recording trace sink (see {!Trace.create}) and fresh registry. *)

val metrics_only : unit -> t
(** Fresh registry with the {!Trace.null} sink: metric collection without
    the per-event trace buffer — the cheap always-on configuration used by
    the benchmark harness. *)

val of_trace : Trace.t -> t
(** Fresh registry around a caller-supplied sink — e.g. {!Trace.stream}
    for runs whose trace should go straight to disk instead of an
    in-memory buffer ([Runner.with_streamed_trace]). *)

val tracing : t -> bool
(** Whether the trace sink records; shorthand for
    [Trace.enabled t.trace]. Metric updates are unconditional (they cost
    an integer add); only trace-event {e construction} is guarded. *)
