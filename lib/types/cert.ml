open Clanbft_crypto
module Bitset = Clanbft_util.Bitset

type kind = Timeout | No_vote
type t = { kind : kind; round : int; agg : Keychain.aggregate }

let signing_string kind round =
  match kind with
  | Timeout -> Printf.sprintf "timeout|%d" round
  | No_vote -> Printf.sprintf "novote|%d" round

let make keychain kind ~round shares =
  match Keychain.aggregate keychain shares with
  | None -> None
  | Some agg -> Some { kind; round; agg }

let of_aggregate kind ~round ~agg = { kind; round; agg }

let verify keychain ~quorum t =
  Bitset.cardinal (Keychain.signers t.agg) >= quorum
  && Keychain.verify_aggregate keychain ~msg:(signing_string t.kind t.round) t.agg

let signer_count t = Bitset.cardinal (Keychain.signers t.agg)
let wire_size ~n = 5 + Keychain.signature_size + ((n + 7) / 8)

let pp ppf t =
  Format.fprintf ppf "%s-cert(r%d,%d signers)"
    (match t.kind with Timeout -> "timeout" | No_vote -> "no-vote")
    t.round (signer_count t)
