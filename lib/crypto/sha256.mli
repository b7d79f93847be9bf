(** SHA-256 (FIPS 180-4), implemented from scratch.

    The container has no [digestif]; the protocol needs collision-resistant
    digests for vertex ids, block digests and signature material. Verified in
    the test suite against the RFC 6234 / NIST test vectors. *)

type ctx

val init : unit -> ctx

val feed_string : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> pos:int -> len:int -> unit

val finalize : ctx -> string
(** Returns the 32-byte raw digest and invalidates the context. *)

val digest_string : string -> string
(** One-shot convenience; 32 raw bytes. *)

val digest_concat : string -> string -> string
(** [digest_concat a b = digest_string (a ^ b)], without building [a ^ b]. *)

val hex_of_string : string -> string
(** [hex_of_string s] is the lowercase hex digest of [s]. *)
