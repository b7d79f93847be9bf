(** Experiment harness: build a full system, drive a workload, measure.

    Reproduces the methodology of §7: every proposer includes a configurable
    number of fresh 512-byte transactions in each proposal; latency is the
    time from a transaction's creation to its commit by {e all} non-faulty
    nodes; throughput is committed transactions per second over the
    measurement window (after warm-up). Execution is excluded from the
    metrics, exactly as in the paper.

    [txn_scale] trades simulation granularity for memory: a scale of [k]
    simulates [count/k] transactions of [k×size] bytes — the byte stream,
    and hence the bandwidth behaviour, is unchanged, and reported
    transaction counts are scaled back. *)

open Clanbft_sim

type protocol =
  | Full  (** baseline Sailfish *)
  | Single_clan of { nc : int }
  | Multi_clan of { q : int }
  | Sparse of { k : int }
      (** Sailfish over sparse edges ({!Clanbft_types.Config.Sparse}):
          full dissemination, but each vertex references only the
          structural parents plus [k] sampled ones, in the compact wire
          form. The edge-selection seed derives from [spec.seed]. *)

val protocol_label : protocol -> string

type spec = {
  n : int;
  protocol : protocol;
  txns_per_proposal : int;
  txn_size : int;
  txn_scale : int;
  topology : [ `Gcp | `Uniform of float ];
  duration : Time.span;
  warmup : Time.span;
  seed : int64;
  net : Net.config;
  params : Clanbft_consensus.Sailfish.params;
  crashed : int list;
      (** replicas down for the whole run (crash faults): their ids run no
          replica, so they send nothing and their inbound traffic is
          discarded *)
  fault_plan : Clanbft_faults.Faults.plan;
      (** Byzantine-network scenario (drop/delay/duplication rules,
          partitions, mute-after-round crashes) injected via the net
          filter; {!Clanbft_faults.Faults.empty} for benign runs. Seeded
          from [seed], so adversarial runs replay exactly. *)
  restarts : Clanbft_faults.Faults.restart list;
      (** Crash–recovery schedule: each entry tears the replica down at
          [crash_at] ({!Node.stop} — consensus halted, pending disk writes
          lost) and rebuilds it at [recover_at] from its write-ahead log
          plus peer state sync ({!Node.recover}).
          Persistence is forced on for all replicas when non-empty. An
          empty list schedules nothing and draws no randomness, so benign
          runs are bit-identical to pre-recovery-subsystem behaviour. At
          most one restart per replica; a replica may not appear in both
          [crashed] and [restarts]. *)
  adversaries : Clanbft_faults.Strategy.spec list;
      (** Strategic adversaries ({!Clanbft_faults.Strategy}): each spec
          occupies a node id for the whole run with a protocol-level attack
          behaviour (equivocation, censorship, griefing, sync-storm
          amplification, adversarial reordering). Installed above the fault
          plan's filter. Occupied nodes are the modelled Byzantine parties:
          excluded from commit accounting and from the agreement check,
          exactly like muted replicas. Empty = nothing installed; benign
          runs stay bit-identical. *)
  persist : bool;
  obs : Clanbft_obs.Obs.t option;
      (** Observability handle threaded through net, consensus and fault
          injector. [None] (the default) gives each run a private disabled
          handle. Pass {!Clanbft_obs.Obs.create} to record a trace, or
          {!Clanbft_obs.Obs.metrics_only} to collect the registry without
          the per-event buffer. Tracing never changes the run: same seed,
          same [commit_fingerprint], tracing on or off. *)
}

val default_spec : spec
(** n = 16, Full, 500 txns/proposal, GCP topology, 12 s run with 3 s
    warm-up. *)

type result = {
  label : string;
  committed_txns : int;  (** completed in-window, scaled *)
  throughput_ktps : float;
  latency_mean_ms : float;  (** creation → committed-by-all, block-weighted *)
  latency_p50_ms : float;  (** [nan] when no block completed in-window *)
  latency_p99_ms : float;
  rounds : int;  (** max round reached by any replica *)
  leaders_committed : int;
  bytes_total : int;
  mb_per_node_per_s : float;  (** mean egress rate per replica *)
  events : int;  (** engine events processed, elided deliveries included *)
  dispatched : int;
      (** engine events actually run: [events] less the deliveries the net
          elided because their receiver was certain to ignore them *)
  agreement : bool;
      (** no compared replica's commit diverged from the canonical order
          ({!Smr_world.divergence}); strategy-occupied and snapshot-joined
          replicas are not compared, crashed ones commit nothing *)
  commit_fingerprint : int;
      (** Hash folding every honest replica's entire commit sequence (and
          its length): equal fingerprints ⇔ bit-identical commit sequences,
          up to hash collision. The yardstick for determinism assertions.
          Replicas that snapshot-joined past a GC'd gap are excluded (their
          ledgers legitimately start mid-history); fully WAL-replayed
          replicas are included. *)
  commit_chain : int array;
      (** The full chained-hash commit vector of the lowest-indexed
          always-required replica. Element [i] hashes the sequence prefix
          of length [i+1], so two runs agree on a commit prefix of length
          [k] iff their chains agree at index [k-1] — the instrument for
          crash-vs-benign prefix assertions. *)
  post_recovery_commits : (int * int) list;
      (** Per restarted replica: vertices it committed strictly after its
          [recover_at] (WAL replay fires exactly at [recover_at], so this
          counts genuinely new post-recovery progress). Empty when
          [restarts] is empty. *)
  census : (string * int) list;
      (** End-of-run heap census ({!Clanbft_obs.Prof.census}): measured
          reachable words per subsystem, summed across replicas, in
          charging order; the last row, [other], holds what else the
          simulation reaches (callbacks, messages in flight, the net). The
          rows sum to the words reachable from the simulation and are
          byte-identical per seed. Empty unless the profiler is enabled.
          See docs/PROFILING.md. *)
}

val validate : spec -> (unit, string) Stdlib.result
(** The first reason {!run} would refuse the spec: a bad load or
    [txn_scale], an out-of-range crashed, restarting or adversary node id,
    a restart of a crashed replica, two restarts of one replica, an empty
    restart window, or a bad censor victim ({!Clanbft_faults.Strategy.validate}). *)

val run : ?on_wal:(int -> Persist.t -> unit) -> spec -> result
(** Raises [Invalid_argument] with the {!validate} error. [on_wal] is called after the simulation with each replica's id and
    persistent store, when persistence is on — an audit hook over the
    write-ahead logs recovery replays. *)

val with_streamed_trace : path:string -> (Clanbft_obs.Obs.t -> 'a) -> 'a
(** [with_streamed_trace ~path f] opens [path], builds an observability
    handle whose trace sink streams each event to it as one JSONL line at
    emission time ({!Clanbft_obs.Trace.stream}), runs [f obs] (typically
    [f = fun obs -> run { spec with obs = Some obs }]) and closes the
    channel — so a long traced run never accumulates the event list in
    memory. Streaming writes no engine events and draws no randomness:
    the run is bit-identical to a buffered or untraced one. *)

val run_many : ?pool:Clanbft_util.Pool.t -> spec array -> result array
(** Run independent simulations across the pool's worker domains (a fresh
    default-width pool when none is given), returning results in spec
    order. Each run owns all of its mutable state, so for any fixed spec
    array the results are bit-identical at every pool width — parallelism
    changes wall-clock time only. *)

val pp_result : Format.formatter -> result -> unit
(** One table row: throughput, latency, traffic. *)
