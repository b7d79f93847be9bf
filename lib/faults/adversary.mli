(** Actively Byzantine RBC senders and voters.

    {!Faults} covers everything the network can do to honest traffic; this
    module impersonates a {e sender} that crafts its own first-round
    dissemination maliciously ({!run}), and a voter that backs digests of
    its choosing ({!vote}). The adversary occupies a node id with no
    honest protocol instance behind it (give that id a no-op net handler)
    and injects raw {!Clanbft_rbc.Rbc.msg} traffic; the honest nodes'
    quorum rules must then keep the instance safe — and, whenever any
    honest party delivers, live.

    Everything is deterministic: recipients are visited in id order, so two
    runs of the same scenario are bit-identical. *)

type behaviour =
  | Silent  (** the sender never speaks: nobody may deliver *)
  | Equivocate of { values : string list }
      (** round-robin distinct values across recipients (clan members get
          full VALs, the rest of the tribe the matching digests): a
          maximal-confusion split under which typically no digest reaches
          quorum — a safety stressor *)
  | Equivocate_biased of { value : string; decoy : string; decoys : int }
      (** [decoy] to the first [decoys] value-entitled recipients, [value]
          to every other party: [value] can still reach quorum, so decoy
          holders must detect the mismatch and pull — a liveness stressor *)
  | Withhold of { value : string; reveal : int }
      (** full VAL to only the first [reveal] clan members; everyone else
          (including the remaining clan) gets just the digest. With
          [reveal >= f_c + 1] the echo quorum still forms and the stiffed
          clan members must pull the payload; below that threshold nothing
          can deliver *)

val behaviour_name : behaviour -> string

val run :
  sender:int ->
  n:int ->
  ?clan:int array ->
  protocol:Clanbft_rbc.Rbc.protocol ->
  net:Clanbft_rbc.Rbc.msg Clanbft_sim.Net.t ->
  round:int ->
  behaviour ->
  unit
(** Inject the Byzantine sender's opening traffic for one RBC instance.
    [clan] is required for the tribe protocols (same contract as
    {!Clanbft_rbc.Rbc.create}); for the non-tribe protocols every node
    counts as value-entitled. *)

val vote :
  keychain:Clanbft_crypto.Keychain.t ->
  protocol:Clanbft_rbc.Rbc.protocol ->
  net:Clanbft_rbc.Rbc.msg Clanbft_sim.Net.t ->
  signer:int ->
  sender:int ->
  round:int ->
  dsts:int list ->
  Clanbft_crypto.Digest32.t ->
  unit
(** Byzantine [signer] backs [digest] for instance [(sender, round)]:
    each of [dsts], in order, gets an ECHO (signed with [signer]'s key in
    the signed families) and, in the Bracha families, a READY. *)
