open Clanbft_crypto

type vref = { round : int; source : int; digest : Digest32.t }

type t = {
  round : int;
  source : int;
  block_digest : Digest32.t;
  strong_edges : vref array;
  weak_edges : vref array;
  nvc : Cert.t option;
  tc : Cert.t option;
  compact : bool;
      (* sparse-edge wire representation: strong edges as a sorted source
         index list (round implied), u8 edge counts — see codec *)
  digest : Digest32.t;
  base_wire_size : int;
      (* wire bytes of everything but the certificates (whose size depends
         on the tribe size n); cached so sizing a send is O(1), not
         O(edges) per recipient *)
}

let compute_digest ~round ~source ~block_digest ~strong_edges ~weak_edges ~nvc
    ~tc =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx (Printf.sprintf "vertex|%d|%d|" round source);
  Sha256.feed_string ctx (Digest32.to_raw block_digest);
  let feed_edges label edges =
    Sha256.feed_string ctx label;
    Array.iter
      (fun (e : vref) ->
        Sha256.feed_string ctx (Printf.sprintf "%d,%d," e.round e.source);
        Sha256.feed_string ctx (Digest32.to_raw e.digest))
      edges
  in
  feed_edges "strong:" strong_edges;
  feed_edges "weak:" weak_edges;
  let feed_cert label = function
    | None -> Sha256.feed_string ctx (label ^ "none")
    | Some (c : Cert.t) ->
        Sha256.feed_string ctx
          (Printf.sprintf "%s%d/%d" label c.round (Cert.signer_count c))
  in
  feed_cert "nvc:" nvc;
  feed_cert "tc:" tc;
  Digest32.of_raw (Sha256.finalize ctx)

let make ~round ~source ~block_digest ~strong_edges ~weak_edges
    ?(compact = false) ?nvc ?tc () =
  if round < 0 then invalid_arg "Vertex.make: negative round";
  Array.iter
    (fun (e : vref) ->
      if e.round <> round - 1 then
        invalid_arg "Vertex.make: strong edge must target previous round")
    strong_edges;
  Array.iter
    (fun (e : vref) ->
      if e.round >= round - 1 then
        invalid_arg "Vertex.make: weak edge must target round < r-1")
    weak_edges;
  if compact then begin
    (* The compact wire form carries u8 edge counts, u16 source indices,
       and strictly ascending order (a sorted index list) — enforce all of
       it at construction so encode never meets an unrepresentable
       vertex and decode validation is [make] itself. *)
    if Array.length strong_edges > 0xff || Array.length weak_edges > 0xff then
      invalid_arg "Vertex.make: compact vertex with more than 255 edges";
    Array.iteri
      (fun i (e : vref) ->
        if e.source < 0 || e.source > 0xffff then
          invalid_arg "Vertex.make: compact edge source out of u16 range";
        if i > 0 && strong_edges.(i - 1).source >= e.source then
          invalid_arg "Vertex.make: compact strong edges must ascend by source")
      strong_edges;
    Array.iteri
      (fun i (e : vref) ->
        if e.source < 0 || e.source > 0xffff then
          invalid_arg "Vertex.make: compact edge source out of u16 range";
        if
          i > 0
          && (weak_edges.(i - 1).round, weak_edges.(i - 1).source)
             >= (e.round, e.source)
        then
          invalid_arg
            "Vertex.make: compact weak edges must ascend by (round, source)")
      weak_edges
  end;
  {
    round;
    source;
    block_digest;
    strong_edges;
    weak_edges;
    nvc;
    tc;
    compact;
    digest =
      compute_digest ~round ~source ~block_digest ~strong_edges ~weak_edges
        ~nvc ~tc;
    base_wire_size =
      (if compact then
         (* round + source + block digest + u8 counts + compact edges:
            strong = u16 source + digest (round implied r-1),
            weak = u32 round + u16 source + digest *)
         4 + 4 + Digest32.size + 1
         + (Array.length strong_edges * (2 + Digest32.size))
         + 1
         + (Array.length weak_edges * (4 + 2 + Digest32.size))
       else
         (* round + source + block digest + edge counts + edges *)
         4 + 4 + Digest32.size + 4
         + (Array.length strong_edges * (4 + 4 + Digest32.size))
         + 4
         + (Array.length weak_edges * (4 + 4 + Digest32.size)));
  }

let ref_of t = { round = t.round; source = t.source; digest = t.digest }
let vref_wire_size = 4 + 4 + Digest32.size

(* Index-based edge traversal: strong edges first, then weak — the same
   order as consing the two arrays into a list, without the list. *)
let iter_edges t f =
  Array.iter f t.strong_edges;
  Array.iter f t.weak_edges

let wire_size ~n t =
  let cert = function None -> 1 | Some _ -> 1 + Cert.wire_size ~n in
  t.base_wire_size + cert t.nvc + cert t.tc

let has_strong_edge_to t ~round ~source =
  round = t.round - 1
  && Array.exists (fun (e : vref) -> e.source = source) t.strong_edges

let pp ppf t =
  Format.fprintf ppf "vertex(%d@r%d,%d strong,%d weak%s%s)" t.source t.round
    (Array.length t.strong_edges)
    (Array.length t.weak_edges)
    (if t.nvc <> None then ",nvc" else "")
    (if t.tc <> None then ",tc" else "")

module Id = struct
  type t = int * int

  let compare (r1, s1) (r2, s2) =
    match Int.compare r1 r2 with 0 -> Int.compare s1 s2 | c -> c
end
