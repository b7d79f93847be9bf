(** clanbft — clan-based DAG BFT SMR.

    One-stop facade over the full stack, re-exporting the stable public
    surface. A downstream user typically needs only:

    - {!Committee} to size and elect clans (Fig. 1 / §6.2 analysis);
    - {!Rbc} for the standalone tribe-assisted reliable broadcast
      primitives (Fig. 2 / Fig. 3);
    - {!Config} + {!Runner} (or {!Smr_world} for a hand-driven
      deployment of {!Node} replicas) to run the single-clan / multi-clan
      Sailfish protocols of §5–§6;
    - {!Sim} to host everything on the deterministic simulator.

    See [examples/] for runnable entry points. *)

(** {1 Substrates} *)

module Util = struct
  module Rng = Clanbft_util.Rng
  module Bitset = Clanbft_util.Bitset
  module Heap = Clanbft_util.Heap
  module Round_rows = Clanbft_util.Round_rows
  module Stats = Clanbft_util.Stats
  module Hex = Clanbft_util.Hex
  module Pool = Clanbft_util.Pool
  module Json = Clanbft_util.Json
end

module Bigint = struct
  module Nat = Clanbft_bigint.Nat
  module Rat = Clanbft_bigint.Rat
end

module Crypto = struct
  module Sha256 = Clanbft_crypto.Sha256
  module Digest32 = Clanbft_crypto.Digest32
  module Keychain = Clanbft_crypto.Keychain
end

module Sim = struct
  module Time = Clanbft_sim.Time
  module Engine = Clanbft_sim.Engine
  module Topology = Clanbft_sim.Topology
  module Net = Clanbft_sim.Net
end

(** {1 Observability (structured tracing + metric registry)} *)

module Obs = Clanbft_obs.Obs
module Trace = Clanbft_obs.Trace
module Metrics = Clanbft_obs.Metrics
module Analyze = Clanbft_obs.Analyze
module Prof = Clanbft_obs.Prof

(** {1 Committee analysis (paper §5 / §6.2)} *)

module Committee = Clanbft_committee.Analysis

(** {1 Protocol types (Fig. 4)} *)

module Transaction = Clanbft_types.Transaction
module Block = Clanbft_types.Block
module Vertex = Clanbft_types.Vertex
module Cert = Clanbft_types.Cert
module Config = Clanbft_types.Config
module Msg = Clanbft_types.Msg
module Codec = Clanbft_types.Codec

(** {1 Tribe-assisted reliable broadcast (paper §3–§4)} *)

module Rbc = Clanbft_rbc.Rbc

(** {1 Byzantine fault injection} *)

module Faults = Clanbft_faults.Faults
module Adversary = Clanbft_faults.Adversary
module Strategy = Clanbft_faults.Strategy
module Rbc_world = Clanbft_faults.Rbc_world

(** {1 DAG and consensus (paper §5–§6)} *)

module Dag_store = Clanbft_dag.Store
module Sailfish = Clanbft_consensus.Sailfish
module Latency_model = Clanbft_consensus.Latency_model
module Poa_smr = Clanbft_consensus.Poa_smr

(** {1 Schedule-exploration checker (model checking in the small)} *)

module Check = struct
  module Schedule = Clanbft_check.Schedule
  module Harness = Clanbft_check.Harness
  module Explore = Clanbft_check.Explore
end

(** {1 State machine replication} *)

module Mempool = Clanbft_smr.Mempool
module Execution = Clanbft_smr.Execution
module Persist = Clanbft_smr.Persist
module Node = Clanbft_smr.Node
module Smr_world = Clanbft_smr.Smr_world
module Client = Clanbft_smr.Client
module Runner = Clanbft_smr.Runner
