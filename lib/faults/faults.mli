(** Deterministic Byzantine fault injection over {!Clanbft_sim.Net}.

    A {!plan} is a declarative description of an adversarial scenario:
    selective message {e drop}, {e delay} and {e duplication} rules keyed by
    message kind, peer and time/round window, network {e partitions} that
    heal at a chosen instant (the pre-GST adversary of §3's partial-synchrony
    model), and {e mute} faults that silence a node from a given round or
    time onward (crash-after-round).

    {!install} compiles a plan into a {!Clanbft_sim.Net.set_filter} hook.
    All stochastic choices (probabilistic drops, delay sampling) draw from
    the provided {!Clanbft_util.Rng.t}, so a run replays bit-identically
    from its seed. The injector is generic over the message type: pass
    [classify] (e.g. [Rbc.msg_tag] or [Msg.tag]) to enable kind-keyed rules
    and [round_of] to enable round-windowed rules and round-keyed mutes.

    Companion module {!Strategy} drives actively Byzantine nodes
    (equivocation, withholding, censorship, ...) on either wire; this
    module covers everything the network itself can do to honest
    traffic. *)

open Clanbft_sim

type selector = All | Only of int list | Except of int list

type action =
  | Drop of float  (** drop probability; [>= 1.0] drops unconditionally *)
  | Delay of { min : Time.span; max : Time.span }
      (** hold the message and re-inject it after a uniform extra delay *)
  | Duplicate of int  (** let the message through plus this many copies *)

type rule = {
  action : action;
  kinds : string list;  (** message kinds matched; [[]] matches every kind *)
  src : selector;
  dst : selector;
  from_time : Time.t;  (** active while [from_time <= now < until_time] *)
  until_time : Time.t;
  from_round : int;  (** and [from_round <= round <= until_round], when the
                         message carries a round *)
  until_round : int;
}

val rule :
  ?kinds:string list ->
  ?src:selector ->
  ?dst:selector ->
  ?from_time:Time.t ->
  ?until_time:Time.t ->
  ?from_round:int ->
  ?until_round:int ->
  action ->
  rule
(** Rule with everything defaulted to "always, everyone, every kind". *)

type partition = {
  groups : int list list;
      (** nodes in different groups cannot exchange messages; nodes listed
          in no group are unconstrained *)
  part_from : Time.t;
  heal_at : Time.t;
      (** Messages sent at [heal_at] or later pass again. Cross-group
          traffic sent while the partition is up is {e buffered} and
          re-injected at [heal_at] — the partial-synchrony model, where an
          adversary delays messages until GST but cannot destroy them
          (think TCP retransmission across a healed split). A partition
          that never heals ([heal_at = max_int]) drops instead. *)
}

type mute = {
  node : int;
  after_round : int;  (** suppress round-tagged messages with round >= this *)
  after_time : Time.t;  (** and everything the node sends from this time on *)
}

type restart = {
  node : int;
  crash_at : Time.t;
  recover_at : Time.t;
      (** The replica is torn down at [crash_at] (process and volatile
          state lost, pending disk writes discarded) and rebuilt at
          [recover_at] from its write-ahead log plus peer state sync (see
          [docs/RECOVERY.md]). Restarts are executed by the runner's
          lifecycle scheduler, not by the network filter, so they are
          carried in [Runner.spec] rather than in {!plan}. *)
}

type plan = {
  rules : rule list;  (** first matching rule wins *)
  partitions : partition list;
  mutes : mute list;
}

val empty : plan
val is_empty : plan -> bool

val plan :
  ?rules:rule list -> ?partitions:partition list -> ?mutes:mute list -> unit -> plan

type 'msg t
(** An installed injector; retains drop/delay/duplicate counters. *)

val install :
  engine:Engine.t ->
  net:'msg Net.t ->
  rng:Clanbft_util.Rng.t ->
  ?classify:('msg -> string) ->
  ?round_of:('msg -> int option) ->
  ?obs:Clanbft_obs.Obs.t ->
  plan ->
  'msg t
(** Compiles [plan] and installs it as the net's filter (replacing any
    previous filter). Delayed and duplicated messages are re-injected
    through {!Net.send_unfiltered} — they pay serialization again, like a
    real retransmission, but are never re-offered to the filter chain (nor
    to any adversary {!Strategy} layered above it).

    With a tracing [obs], every rule that {e bites} emits a
    {!Clanbft_obs.Trace.Fault_fire} event carrying the rule's index in
    [plan.rules] (or [-1] for mute and partition firings) and the action
    taken (["drop"], ["delay"], ["dup"], ["mute"], ["partition_delay"],
    ["partition_drop"]). A probabilistic drop that lets the message
    through does not fire. *)

val examined : _ t -> int
val dropped : _ t -> int
val delayed : _ t -> int
val duplicated : _ t -> int

(** {1 Textual scenario specs}

    The CLI and bench presets describe plans as colon-separated specs:

    - rule: [ACTION(:FIELD)*] where [ACTION] is [drop], [drop=0.3],
      [delay=50ms], [delay=10ms..80ms] or [dup=2], and each [FIELD] is one
      of [kind=echo,val], [src=1,2], [src=!0] (everyone but 0), [dst=*],
      [from=1s], [until=3s], [rounds=2..8] (inclusive), [rounds=5..].
      Example: [drop=0.5:kind=echo:dst=8:until=3s].
    - partition: groups separated by [|], e.g. [0,1,2|3,4:until=2s]; the
      [until] field is the heal time, at which buffered cross-group
      traffic is released (omit it for a permanent cut, which drops).
    - mute: [NODE(:round=R)?(:time=T)?], e.g. [3:round=10].
    - restart: [NODE@CRASH:RECOVER], e.g. [3@4s:8s].

    Times accept [us]/[ms]/[s] suffixes; a bare integer is microseconds. *)

val parse_time : string -> (Time.span, string) result
(** The spec grammar's time literal ([us]/[ms]/[s] suffix or bare µs);
    shared with {!Strategy}'s argument parser. *)

val rule_of_string : string -> (rule, string) result
val partition_of_string : string -> (partition, string) result
val mute_of_string : string -> (mute, string) result

val restart_of_string : string -> (restart, string) result
(** Parse [NODE@CRASH:RECOVER]; rejects [crash_at >= recover_at]. *)

val restarts_of_specs : string list -> (restart list, string) result

val plan_of_specs :
  ?rules:string list ->
  ?partitions:string list ->
  ?mutes:string list ->
  unit ->
  (plan, string) result
(** Parse a whole plan; the first malformed spec reports its error. *)
