open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Prof = Clanbft_obs.Prof

let sec_encode = Prof.section "codec.encode"
let sec_decode = Prof.section "codec.decode"

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writer *)

module W = struct
  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u16 b v =
    if v < 0 || v > 0xffff then invalid_arg "Codec: u16 out of range";
    u8 b (v lsr 8);
    u8 b v

  let u32 b v =
    if v < 0 then invalid_arg "Codec: negative u32";
    u8 b (v lsr 24);
    u8 b (v lsr 16);
    u8 b (v lsr 8);
    u8 b v

  let i64 b v =
    for byte = 7 downto 0 do
      u8 b ((v asr (8 * byte)) land 0xff)
    done

  let raw b s = Buffer.add_string b s

  let zero_chunk = String.make 4096 '\x00'

  let rec zeros b n =
    if n > 0 then begin
      let k = min n (String.length zero_chunk) in
      Buffer.add_substring b zero_chunk 0 k;
      zeros b (n - k)
    end

  (* Signatures are 32-byte simulated tags padded to the κ = 64 bytes a
     real signature would occupy. *)
  let raw_signature b s =
    if String.length s <> 32 then invalid_arg "Codec: signature must be 32B";
    raw b s;
    raw b (String.make 32 '\x00')

  let signature b s = raw_signature b (Keychain.signature_to_raw s)

  let digest b d = raw b (Digest32.to_raw d)

  (* Each bitmap byte is gathered from the bitset's words in one shot —
     no per-member read-modify-write through Char.code/Char.chr. The
     encoding is unchanged: member i lands in byte i/8, bit i mod 8. *)
  let bitset b ~n set =
    let len = (n + 7) / 8 in
    let cap_bytes = (Bitset.capacity set + 7) / 8 in
    let bytes = Bytes.create len in
    for j = 0 to len - 1 do
      Bytes.unsafe_set bytes j
        (Char.unsafe_chr (if j < cap_bytes then Bitset.byte set j else 0))
    done;
    raw b (Bytes.unsafe_to_string bytes)

  let aggregate b ~n agg =
    raw_signature b (Keychain.aggregate_tag agg);
    bitset b ~n (Keychain.signers agg)
end

(* ------------------------------------------------------------------ *)
(* Reader *)

module R = struct
  type t = { s : string; mutable pos : int }

  let create s = { s; pos = 0 }

  let need r n =
    if r.pos + n > String.length r.s then fail "truncated input (need %d)" n

  let u8 r =
    need r 1;
    let v = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    need r 2;
    let v = (Char.code r.s.[r.pos] lsl 8) lor Char.code r.s.[r.pos + 1] in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    need r 4;
    let v =
      (Char.code r.s.[r.pos] lsl 24)
      lor (Char.code r.s.[r.pos + 1] lsl 16)
      lor (Char.code r.s.[r.pos + 2] lsl 8)
      lor Char.code r.s.[r.pos + 3]
    in
    r.pos <- r.pos + 4;
    v

  let i64 r =
    need r 8;
    let v = ref 0 in
    for _ = 1 to 8 do
      v := (!v lsl 8) lor Char.code r.s.[r.pos];
      r.pos <- r.pos + 1
    done;
    !v

  let raw r n =
    need r n;
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  let skip r n =
    need r n;
    r.pos <- r.pos + n

  let raw_signature r =
    let s = raw r 32 in
    skip r 32;
    s

  let signature r = Keychain.signature_of_raw (raw_signature r)

  let digest r = Digest32.of_raw (raw r 32)

  let bitset r ~n =
    let bytes = raw r ((n + 7) / 8) in
    let set = Bitset.create n in
    String.iteri
      (fun byte_idx c ->
        let c = Char.code c in
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then begin
            let i = (byte_idx * 8) + bit in
            if i >= n then fail "bitset bit out of range";
            ignore (Bitset.add set i)
          end
        done)
      bytes;
    set

  let aggregate r ~n =
    let tag = raw_signature r in
    let signers = bitset r ~n in
    Keychain.aggregate_of_wire ~tag ~signers

  (* A u32 element count, bounded by what the rest of the input can hold:
     each element takes at least [elt] bytes, so a forged count never
     allocates more slots than there are bytes left. *)
  let count r ~elt =
    let c = u32 r in
    if c > (String.length r.s - r.pos) / elt then fail "count %d exceeds input" c;
    c

  let eof r = if r.pos <> String.length r.s then fail "trailing bytes"
end

(* ------------------------------------------------------------------ *)
(* Domain values *)

let read_txn r =
  let id = R.i64 r in
  let client = R.u32 r in
  let created_at = R.i64 r in
  let size = R.u32 r in
  R.skip r size;
  Transaction.make ~id ~client ~created_at ~size ()

(* Straight from the block's runs: one header and zero payload per
   transaction, no record built. *)
let write_block b (blk : Block.t) =
  W.u32 b blk.proposer;
  W.u32 b blk.round;
  W.u32 b (Block.txn_count blk);
  Block.iter_runs blk (fun ~id ~count ~client ~created_at ~size ->
      for k = 0 to count - 1 do
        W.i64 b (id + k);
        W.u32 b client;
        W.i64 b created_at;
        W.u32 b size;
        W.zeros b size
      done)

let read_block r =
  let proposer = R.u32 r in
  let round = R.u32 r in
  let count = R.count r ~elt:Transaction.header_size in
  let txns = Array.init count (fun _ -> read_txn r) in
  Block.make ~proposer ~round ~txns

let write_vref b (v : Vertex.vref) =
  W.u32 b v.round;
  W.u32 b v.source;
  W.digest b v.digest

let read_vref r : Vertex.vref =
  let round = R.u32 r in
  let source = R.u32 r in
  let digest = R.digest r in
  { round; source; digest }

let write_cert b ~n (c : Cert.t) =
  W.u8 b (match c.kind with Cert.Timeout -> 0 | Cert.No_vote -> 1);
  W.u32 b c.round;
  W.aggregate b ~n c.agg

let read_cert r ~n =
  let kind =
    match R.u8 r with
    | 0 -> Cert.Timeout
    | 1 -> Cert.No_vote
    | k -> fail "bad cert kind %d" k
  in
  let round = R.u32 r in
  let agg = R.aggregate r ~n in
  Cert.of_aggregate kind ~round ~agg

let write_cert_opt b ~n = function
  | None -> W.u8 b 0
  | Some c ->
      W.u8 b 1;
      write_cert b ~n c

let read_cert_opt r ~n =
  match R.u8 r with
  | 0 -> None
  | 1 -> Some (read_cert r ~n)
  | k -> fail "bad cert option %d" k

(* The compact layout (sparse-edge mode) drops what a sorted index list
   makes redundant: strong-edge target rounds are implied (always r-1),
   sources fit u16, edge counts fit u8. Which layout a vertex uses is a
   protocol-level property carried by [Vertex.t.compact] on the write side
   and by the decoder's [compact] parameter on the read side — never a
   wire flag byte, so dense bytes are untouched. *)
let write_vertex b ~n (v : Vertex.t) =
  W.u32 b v.round;
  W.u32 b v.source;
  W.digest b v.block_digest;
  if v.compact then begin
    W.u8 b (Array.length v.strong_edges);
    Array.iter
      (fun (e : Vertex.vref) ->
        W.u16 b e.source;
        W.digest b e.digest)
      v.strong_edges;
    W.u8 b (Array.length v.weak_edges);
    Array.iter
      (fun (e : Vertex.vref) ->
        W.u32 b e.round;
        W.u16 b e.source;
        W.digest b e.digest)
      v.weak_edges
  end
  else begin
    W.u32 b (Array.length v.strong_edges);
    Array.iter (write_vref b) v.strong_edges;
    W.u32 b (Array.length v.weak_edges);
    Array.iter (write_vref b) v.weak_edges
  end;
  write_cert_opt b ~n v.nvc;
  write_cert_opt b ~n v.tc

let read_vertex r ~n ~compact =
  let round = R.u32 r in
  let source = R.u32 r in
  let block_digest = R.digest r in
  let strong_edges, weak_edges =
    if compact then begin
      let strong_count = R.u8 r in
      let strong_edges =
        Array.init strong_count (fun _ : Vertex.vref ->
            let source = R.u16 r in
            let digest = R.digest r in
            { round = round - 1; source; digest })
      in
      let weak_count = R.u8 r in
      let weak_edges =
        Array.init weak_count (fun _ : Vertex.vref ->
            let round = R.u32 r in
            let source = R.u16 r in
            let digest = R.digest r in
            { round; source; digest })
      in
      (strong_edges, weak_edges)
    end
    else begin
      let strong_count = R.count r ~elt:Vertex.vref_wire_size in
      let strong_edges = Array.init strong_count (fun _ -> read_vref r) in
      let weak_count = R.count r ~elt:Vertex.vref_wire_size in
      let weak_edges = Array.init weak_count (fun _ -> read_vref r) in
      (strong_edges, weak_edges)
    end
  in
  let nvc = read_cert_opt r ~n in
  let tc = read_cert_opt r ~n in
  (* [Vertex.make] re-validates the compact invariants (ascending sorted
     sources, u8/u16 ranges), so a malformed compact input fails here. *)
  try
    Vertex.make ~round ~source ~block_digest ~strong_edges ~weak_edges ~compact
      ?nvc ?tc ()
  with Invalid_argument m -> fail "bad vertex: %s" m

let write_block_opt b = function
  | None -> W.u8 b 0
  | Some blk ->
      W.u8 b 1;
      write_block b blk

let read_block_opt r =
  match R.u8 r with
  | 0 -> None
  | 1 -> Some (read_block r)
  | k -> fail "bad block option %d" k

(* ------------------------------------------------------------------ *)
(* Messages *)

let encode ~n msg =
  Prof.enter sec_encode;
  let b = W.create () in
  (match msg with
  | Msg.Val { vertex; block; signature } ->
      W.u8 b 0;
      write_vertex b ~n vertex;
      write_block_opt b block;
      W.signature b signature
  | Msg.Echo { round; source; vertex_digest; signer; signature } ->
      W.u8 b 1;
      W.u32 b round;
      W.u32 b source;
      W.digest b vertex_digest;
      W.u32 b signer;
      W.signature b signature
  | Msg.Echo_cert { round; source; vertex_digest; agg; clan_echoes } ->
      W.u8 b 2;
      W.u32 b round;
      W.u32 b source;
      W.digest b vertex_digest;
      W.aggregate b ~n agg;
      W.u32 b clan_echoes
  | Msg.Timeout_share { round; signer; signature } ->
      W.u8 b 3;
      W.u32 b round;
      W.u32 b signer;
      W.signature b signature
  | Msg.No_vote_share { round; signer; signature } ->
      W.u8 b 4;
      W.u32 b round;
      W.u32 b signer;
      W.signature b signature
  | Msg.Timeout_cert c ->
      W.u8 b 5;
      write_cert b ~n c
  | Msg.Block_request { round; source } ->
      W.u8 b 6;
      W.u32 b round;
      W.u32 b source
  | Msg.Block_reply { block } ->
      W.u8 b 7;
      write_block b block
  | Msg.Vertex_request { round; source } ->
      W.u8 b 8;
      W.u32 b round;
      W.u32 b source
  | Msg.Vertex_reply { vertex; block } ->
      W.u8 b 9;
      write_vertex b ~n vertex;
      write_block_opt b block
  | Msg.Sync_request { from_round } ->
      W.u8 b 10;
      W.u32 b from_round
  | Msg.Sync_reply { floor; highest } ->
      W.u8 b 11;
      W.u32 b floor;
      (* [highest] is -1 for an empty store; bias by one to stay in u32. *)
      W.u32 b (highest + 1));
  let s = Buffer.contents b in
  Prof.leave sec_encode;
  s

let decode_raw ~n ~compact s =
  let r = R.create s in
  let msg =
    match R.u8 r with
    | 0 ->
        let vertex = read_vertex r ~n ~compact in
        let block = read_block_opt r in
        let signature = R.signature r in
        Msg.Val { vertex; block; signature }
    | 1 ->
        let round = R.u32 r in
        let source = R.u32 r in
        let vertex_digest = R.digest r in
        let signer = R.u32 r in
        let signature = R.signature r in
        Msg.Echo { round; source; vertex_digest; signer; signature }
    | 2 ->
        let round = R.u32 r in
        let source = R.u32 r in
        let vertex_digest = R.digest r in
        let agg = R.aggregate r ~n in
        let clan_echoes = R.u32 r in
        Msg.Echo_cert { round; source; vertex_digest; agg; clan_echoes }
    | 3 ->
        let round = R.u32 r in
        let signer = R.u32 r in
        let signature = R.signature r in
        Msg.Timeout_share { round; signer; signature }
    | 4 ->
        let round = R.u32 r in
        let signer = R.u32 r in
        let signature = R.signature r in
        Msg.No_vote_share { round; signer; signature }
    | 5 -> Msg.Timeout_cert (read_cert r ~n)
    | 6 ->
        let round = R.u32 r in
        let source = R.u32 r in
        Msg.Block_request { round; source }
    | 7 -> Msg.Block_reply { block = read_block r }
    | 8 ->
        let round = R.u32 r in
        let source = R.u32 r in
        Msg.Vertex_request { round; source }
    | 9 ->
        let vertex = read_vertex r ~n ~compact in
        let block = read_block_opt r in
        Msg.Vertex_reply { vertex; block }
    | 10 ->
        let from_round = R.u32 r in
        Msg.Sync_request { from_round }
    | 11 ->
        let floor = R.u32 r in
        let highest = R.u32 r - 1 in
        Msg.Sync_reply { floor; highest }
    | t -> fail "bad message tag %d" t
  in
  R.eof r;
  msg

let decode ~n ?(compact = false) s =
  Prof.enter sec_decode;
  match decode_raw ~n ~compact s with
  | msg ->
      Prof.leave sec_decode;
      msg
  | exception e ->
      Prof.leave sec_decode;
      raise e

let encode_vertex ~n v =
  Prof.span sec_encode (fun () ->
      let b = W.create () in
      write_vertex b ~n v;
      Buffer.contents b)

let decode_vertex ~n ?(compact = false) s =
  Prof.span sec_decode (fun () ->
      let r = R.create s in
      let v = read_vertex r ~n ~compact in
      R.eof r;
      v)

let encode_block blk =
  Prof.span sec_encode (fun () ->
      let b = W.create () in
      write_block b blk;
      Buffer.contents b)

let decode_block s =
  Prof.span sec_decode (fun () ->
      let r = R.create s in
      let blk = read_block r in
      R.eof r;
      blk)
