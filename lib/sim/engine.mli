(** Discrete-event simulation engine.

    A single-threaded event loop over a priority queue keyed by simulated
    time. Ties are processed in scheduling order, so a run is a pure function
    of the initial schedule — which makes Byzantine/partial-synchrony test
    scenarios exactly reproducible. *)

type t

val create : unit -> t
(** A fresh engine at time 0. Its calendar ring starts at 2^12 µs, so
    [create] allocates only a few thousand words — cheap enough for the
    [lib/check] explorer, which rebuilds a world per branch. *)

val horizon : t -> Time.span
(** Width of the calendar ring, in µs: events within [horizon] of the
    clock sit in O(1) ring buckets, anything further parks in an overflow
    heap and migrates in as the clock approaches. The ring sizes itself:
    it doubles (up to 2^22 µs) whenever the overflow heap holds more than
    [max 1024 (pending / 8)] events, and never shrinks, so memory follows
    the events in flight. Growth never reorders events. Exposed so
    boundary tests can aim at the edge. *)

val heap_roots : t -> Obj.t list
(** The calendar's data — ring, occupancy summary, slot links and
    arguments, overflow heap — as {!Clanbft_obs.Prof.census} roots. They
    reach no closure. *)

val now : t -> Time.t

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** Raises [Invalid_argument] if the time is in the past. *)

val schedule_ix_at : t -> Time.t -> (int -> unit) -> int -> unit
(** [schedule_ix_at t time fn arg] runs [fn arg] at [time]. Semantically
    [schedule_at t time (fun () -> fn arg)], but the closure is shared:
    a fan-out delivering one message to [n] recipients fills [n] pool
    slots (callback, index) around a {e single} shared callback instead of
    allocating [n] environments. Once the slot pool has grown to the
    run's peak, scheduling and running such an event allocate nothing.
    Ordering within a microsecond is unchanged — thunks and indexed
    callbacks interleave in scheduling order. Raises [Invalid_argument]
    if the time is in the past. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> unit

(** {1 Delivery-choice points}

    Hooks for schedule exploration (see [lib/check] and docs/CHECKING.md):
    an event scheduled through a {e choice point} normally behaves exactly
    like a calendar event, but when {!set_choice_mode} is on it is parked
    in a labelled pool instead, and an external scheduler decides which
    pooled event runs next — turning the engine's fixed calendar order
    into a pluggable delivery order. The default path is untouched: with
    choice mode off (the initial state), {!schedule_choice_at} and
    {!schedule_choice_ix_at} are exact aliases of {!schedule_at} and
    {!schedule_ix_at}, so ordinary runs stay bit-identical. *)

type choice = {
  id : int;  (** creation-order identity, stable across identical replays *)
  time : Time.t;  (** when the calendar would have run the event *)
  src : int;  (** sending node (or [-1] when not a message delivery) *)
  dst : int;  (** receiving node *)
  tag : string;  (** message kind, for human-readable schedules *)
}
(** A pooled event awaiting an external scheduling decision. [id]s are
    assigned in scheduling order by a per-engine counter, so two replays
    of the same decision prefix observe identical ids — the property that
    makes recorded schedules replayable. *)

val set_choice_mode : t -> bool -> unit
(** Turn choice mode on or off. Flip it before any traffic is scheduled:
    already-pooled (or already-enqueued) events are not migrated. *)

val schedule_choice_at :
  t -> Time.t -> src:int -> dst:int -> tag:string -> (unit -> unit) -> unit
(** Like {!schedule_at} when choice mode is off (identical pool slot,
    identical ordering); pools the event when it is on. The labels are
    metadata for the external scheduler and appear in {!choices}. *)

val schedule_choice_ix_at :
  t -> Time.t -> src:int -> dst:int -> tag:string -> (int -> unit) -> int -> unit
(** Shared-closure variant, mirroring {!schedule_ix_at}. *)

val choices : t -> choice list
(** Pending pooled events, in ascending [id] (i.e. creation) order.
    Empty when choice mode is off. *)

val choice_count : t -> int

val fire_choice : t -> int -> unit
(** Run the pooled event with this [id] now, at the current clock (the
    clock does not advance — in choice mode simulated time is driven
    solely by calendar events via {!step}). Raises [Invalid_argument] for
    an unknown or already-fired id. *)

val drop_choice : t -> int -> unit
(** Discard a pooled event without running it (models message loss, e.g.
    a crashed node's queued deliveries). Raises [Invalid_argument] for an
    unknown id. *)

val run : ?until:Time.t -> t -> unit
(** Process events in time order until the queue empties or the clock
    passes [until]. When stopping on [until], the clock is left at [until]
    and any later events stay queued. *)

val step : t -> bool
(** Process one event; [false] when the queue is empty. *)

val pending : t -> int
val events_processed : t -> int
