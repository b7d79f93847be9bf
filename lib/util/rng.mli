(** Deterministic pseudo-random number generation.

    Every stochastic choice in the library (clan election, adversarial
    delays, workload generation) goes through an explicit [Rng.t] so that a
    whole experiment is reproducible from a single 64-bit seed. The core
    generator is splitmix64, which is fast, has a full 2^64 period and is
    trivially splittable. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val seed_of_string : string -> int64
(** FNV-1a of the string: a fixed seed per named scenario, so a scenario's
    run does not depend on which other scenarios run or in what order. *)

val split : t -> t
(** [split t] derives an independent generator; both [t] and the result keep
    producing values without correlation. Used to give each simulated node
    its own stream. *)

val next_int64 : t -> int64
(** Uniform over all 2^64 bit patterns. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val bits53 : t -> int
(** Uniform in [\[0, 2^53)]: the draw behind {!float}, as an [int] so a
    caller scaling it allocates nothing. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniformly random bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val exponential : t -> mean:float -> float
(** Sample from an exponential distribution; used for Poisson arrivals. *)
