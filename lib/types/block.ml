open Clanbft_crypto

(* Five ints per run: first id, count, client, created_at, size. *)
type runs = int array

let stride = 5

type t = {
  proposer : int;
  round : int;
  runs : runs;
  digest : Digest32.t;
  wire_size : int;
      (* cached at construction: sizing used to cost O(txns) per network
         send — once per recipient — on every proposal *)
}

(* [next] extends the run that [prev] ends. *)
let extends (prev : Transaction.t) (next : Transaction.t) =
  next.id = prev.id + 1
  && next.client = prev.client
  && next.created_at = prev.created_at
  && next.size = prev.size

(* Two passes: count the runs, then fill one array of exactly that size. *)
let pack (txns : Transaction.t array) =
  let len = Array.length txns in
  if len = 0 then [||]
  else begin
    let count = ref 1 in
    for i = 1 to len - 1 do
      if not (extends txns.(i - 1) txns.(i)) then incr count
    done;
    let runs = Array.make (!count * stride) 0 in
    let base = ref (-stride) in
    for i = 0 to len - 1 do
      let txn = txns.(i) in
      if i > 0 && extends txns.(i - 1) txn then
        runs.(!base + 1) <- runs.(!base + 1) + 1
      else begin
        base := !base + stride;
        runs.(!base) <- txn.id;
        runs.(!base + 1) <- 1;
        runs.(!base + 2) <- txn.client;
        runs.(!base + 3) <- txn.created_at;
        runs.(!base + 4) <- txn.size
      end
    done;
    runs
  end

let count_of runs =
  let total = ref 0 in
  for r = 0 to (Array.length runs / stride) - 1 do
    total := !total + runs.((r * stride) + 1)
  done;
  !total

let put64 buf pos v =
  for byte = 0 to 7 do
    Bytes.unsafe_set buf (pos + byte) (Char.unsafe_chr ((v lsr (8 * byte)) land 0xff))
  done

(* One contiguous buffer then a single SHA-256 pass: blocks carry up to
   6000 transactions and are created on every proposal, so this is a hot
   path in large experiments. Each transaction contributes its id and
   [(client lsl 24) lxor size], 16 bytes, whatever run it sits in. *)
let compute_digest ~proposer ~round runs =
  let buf = Bytes.create (16 + (count_of runs * 16)) in
  put64 buf 0 proposer;
  put64 buf 8 round;
  let pos = ref 16 in
  for r = 0 to (Array.length runs / stride) - 1 do
    let base = r * stride in
    let id = runs.(base) and tag = (runs.(base + 2) lsl 24) lxor runs.(base + 4) in
    for k = 0 to runs.(base + 1) - 1 do
      put64 buf !pos (id + k);
      put64 buf (!pos + 8) tag;
      pos := !pos + 16
    done
  done;
  let ctx = Sha256.init () in
  Sha256.feed_bytes ctx buf ~pos:0 ~len:(Bytes.length buf);
  Digest32.of_raw (Sha256.finalize ctx)

let make ~proposer ~round ~txns =
  let runs = pack txns in
  {
    proposer;
    round;
    runs;
    digest = compute_digest ~proposer ~round runs;
    wire_size =
      Array.fold_left (fun acc txn -> acc + Transaction.wire_size txn) 12 txns;
  }

let digest t = t.digest
let txn_count t = count_of t.runs
let wire_size t = t.wire_size

let iter_runs t f =
  for r = 0 to (Array.length t.runs / stride) - 1 do
    let base = r * stride in
    f ~id:t.runs.(base) ~count:t.runs.(base + 1) ~client:t.runs.(base + 2)
      ~created_at:t.runs.(base + 3) ~size:t.runs.(base + 4)
  done

let iter_txns t f =
  iter_runs t (fun ~id ~count ~client ~created_at ~size ->
      for k = 0 to count - 1 do
        f { Transaction.id = id + k; client; created_at; size }
      done)

let txns t =
  let rev = ref [] in
  iter_txns t (fun txn -> rev := txn :: !rev);
  Array.of_list (List.rev !rev)

let pp ppf t =
  Format.fprintf ppf "block(%d@r%d,%d txns,%a)" t.proposer t.round (txn_count t)
    Digest32.pp t.digest
