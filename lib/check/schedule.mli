(** Replayable exploration schedules.

    A schedule is the decision record of one checker run: the exact
    sequence of scheduling actions the explorer took, from the world's
    initial state to wherever the run ended. Because every harness world
    is a deterministic function of its spec (docs/CHECKING.md), a
    schedule replays byte-for-byte — same choice ids, same handler
    executions, same violation — which is what makes a reported
    counterexample a first-class artefact rather than a log line.

    The on-disk format ([clanbft/check-schedule/v1]) is line-oriented
    text: a version header, [meta key=value] lines carrying the world
    spec and provenance (walk seed, checker version), then one action per
    line. Anything after a [#] is a comment; the writer uses comments to
    annotate deliveries with their resolved (kind, src, dst) so schedules
    are human-readable without the harness. *)

type action =
  | Deliver of int
      (** fire the pooled delivery with this {!Clanbft_sim.Engine.choice}
          id *)
  | Step  (** run the next calendar event (a timer) *)
  | Crash of int  (** pause a node: its deliveries are withheld *)
  | Recover of int  (** resume a paused node *)

type t = action list

val action_to_string : action -> string
(** [deliver 12], [step], [crash 2], [recover 2]. *)

val save :
  path:string -> meta:(string * string) list -> ?notes:string list -> t -> unit
(** Write a schedule file. [meta] pairs must contain no whitespace in
    keys; values run to end of line. [notes], when given, must align with
    the actions (one per action) and are emitted as trailing comments. *)

val load : string -> ((string * string) list * t, string) result
(** Parse a schedule file back into its metadata and actions. Unknown or
    malformed lines are an [Error]; unknown meta keys are preserved. *)

val pp : Format.formatter -> t -> unit
(** One action per line, [to_string] rendering. *)
