type t = {
  trace : Trace.t;
  metrics : Metrics.registry;
}

let disabled = { trace = Trace.null; metrics = Metrics.create_registry () }

let create () = { trace = Trace.create (); metrics = Metrics.create_registry () }

let metrics_only () =
  { trace = Trace.null; metrics = Metrics.create_registry () }

let of_trace trace = { trace; metrics = Metrics.create_registry () }

let tracing t = Trace.enabled t.trace
