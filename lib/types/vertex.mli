(** DAG vertices (Fig. 4, [struct vertex]).

    A vertex carries only the {e digest} of its block of transactions — the
    central optimisation of §5: the light vertex travels to the whole tribe
    while the heavy block goes to a clan. Strong edges point at ≥ 2f+1
    vertices of the previous round; weak edges reference older vertices that
    would otherwise be unreachable, so total ordering covers them. *)

open Clanbft_crypto

(** Reference to a vertex: the DAG edge representation. Under RBC a
    (round, source) slot resolves to at most one vertex, and the digest
    pins its content. *)
type vref = { round : int; source : int; digest : Digest32.t }

type t = private {
  round : int;
  source : int;
  block_digest : Digest32.t;
  strong_edges : vref array;  (** references into round [round - 1] *)
  weak_edges : vref array;  (** references into rounds < [round - 1] *)
  nvc : Cert.t option;  (** no-vote certificate for [round - 1], if any *)
  tc : Cert.t option;  (** timeout certificate for [round - 1], if any *)
  compact : bool;  (** sparse-mode compact wire representation *)
  digest : Digest32.t;  (** hash of this vertex (cached) *)
  base_wire_size : int;  (** cached wire bytes excluding certificates *)
}

val make :
  round:int ->
  source:int ->
  block_digest:Digest32.t ->
  strong_edges:vref array ->
  weak_edges:vref array ->
  ?compact:bool ->
  ?nvc:Cert.t ->
  ?tc:Cert.t ->
  unit ->
  t
(** [compact] (default [false]) selects the sparse-edge wire form: u8 edge
    counts, strong edges as a sorted u16 source-index list (target round
    implied, 34 B/edge instead of 40), weak edges as (round, u16 source,
    digest) sorted by (round, source). Compact construction additionally
    validates the sort order and the u8/u16 ranges, so the codec never
    meets an unrepresentable vertex. The content digest is representation
    independent: a compact vertex and a dense vertex with identical fields
    share one digest. *)

val ref_of : t -> vref
(** The reference other vertices use to point at this one. *)

val vref_wire_size : int
(** Bytes per dense edge: round + source + digest. *)

val iter_edges : t -> (vref -> unit) -> unit
(** Apply to every parent reference, strong edges first then weak —
    index-based, allocating nothing (unlike materialising the edge arrays
    as a list, which dominated DAG bookkeeping at large [n]). *)

val wire_size : n:int -> t -> int
(** Exact wire bytes given tribe size [n] (certificates embed an
    ⌈n/8⌉-bit signer vector). O(1): the edge-dependent part is cached at
    construction. *)

val has_strong_edge_to : t -> round:int -> source:int -> bool

val pp : Format.formatter -> t -> unit

(** Totally ordered (round, source) ids, for deterministic iteration. *)
module Id : sig
  type t = int * int

  val compare : t -> t -> int
end
