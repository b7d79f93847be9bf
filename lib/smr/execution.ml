open Clanbft_types
open Clanbft_crypto

type t = {
  mutable state : Digest32.t;
  mutable blocks : int;
  mutable txns : int;
}

let create () = { state = Digest32.zero; blocks = 0; txns = 0 }

let fold_digest t d =
  t.state <- Digest32.hash_string (Digest32.to_raw t.state ^ Digest32.to_raw d);
  t.blocks <- t.blocks + 1

let apply_block t (b : Block.t) =
  fold_digest t (Block.digest b);
  t.txns <- t.txns + Array.length b.txns

let skip_block t digest = fold_digest t digest
let state_digest t = t.state
let executed_txns t = t.txns

let response t (txn : Transaction.t) =
  Digest32.hash_string
    (Printf.sprintf "%s|resp|%d" (Digest32.to_raw t.state) txn.id)
