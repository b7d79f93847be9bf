type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 64 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len
let is_empty t = t.len = 0

let mean t =
  if t.len = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.len
  end

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      let d = t.samples.(i) -. m in
      sum := !sum +. (d *. d)
    done;
    sqrt (!sum /. float_of_int (t.len - 1))
  end

let fold_extreme f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let min t =
  if t.len = 0 then invalid_arg "Stats.min: empty";
  fold_extreme Float.min Float.infinity t

let max t =
  if t.len = 0 then invalid_arg "Stats.max: empty";
  fold_extreme Float.max Float.neg_infinity t

let ensure_sorted t =
  if not t.sorted then begin
    let view = Array.sub t.samples 0 t.len in
    Array.sort Float.compare view;
    Array.blit view 0 t.samples 0 t.len;
    t.sorted <- true
  end

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if t.len = 0 then Float.nan
  else begin
    ensure_sorted t;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) in
    let idx = Stdlib.max 0 (Stdlib.min (t.len - 1) (rank - 1)) in
    t.samples.(idx)
  end

let summary t =
  if t.len = 0 then "empty"
  else
    Printf.sprintf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" t.len (mean t)
      (percentile t 50.0) (percentile t 99.0) (max t)

module Histogram = struct
  type t = {
    edges : float array; (* strictly increasing upper edges *)
    counts : int array; (* length = Array.length edges + 1 (overflow) *)
    mutable total : int;
    mutable sum : float;
  }

  let create ~buckets =
    for i = 1 to Array.length buckets - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Stats.Histogram.create: edges must be strictly increasing"
    done;
    {
      edges = Array.copy buckets;
      counts = Array.make (Array.length buckets + 1) 0;
      total = 0;
      sum = 0.0;
    }

  (* 1 ms .. 60 s, roughly x2 per step: latency distributions in a WAN
     simulation span three orders of magnitude. *)
  let latency_ms_buckets =
    [| 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1_000.; 2_500.; 5_000.;
       10_000.; 30_000.; 60_000. |]

  (* 64 B .. 16 MiB, x4 per step: message sizes and µs-scale backlogs. *)
  let size_buckets =
    [| 64.; 256.; 1_024.; 4_096.; 16_384.; 65_536.; 262_144.; 1_048_576.;
       4_194_304.; 16_777_216. |]

  (* First bucket whose upper edge admits [x]; the overflow slot otherwise.
     Binary search: edges stay small but observe sits on per-message paths. *)
  let bucket_index t x =
    let n = Array.length t.edges in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= t.edges.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe t x =
    let i = bucket_index t x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. x

  let count t = t.total
  let sum t = t.sum
  let mean t = if t.total = 0 then Float.nan else t.sum /. float_of_int t.total

  let edge t i =
    if i < Array.length t.edges then t.edges.(i) else Float.infinity

  let buckets t = Array.mapi (fun i c -> (edge t i, c)) t.counts

  let cumulative t =
    let acc = ref 0 in
    Array.mapi
      (fun i c ->
        acc := !acc + c;
        (edge t i, !acc))
      t.counts

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Stats.Histogram.quantile: q out of range";
    if t.total = 0 then Float.nan
    else begin
      let target =
        Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.total)))
      in
      let acc = ref 0 and result = ref Float.infinity and found = ref false in
      Array.iteri
        (fun i c ->
          acc := !acc + c;
          if (not !found) && !acc >= target then begin
            found := true;
            result := edge t i
          end)
        t.counts;
      !result
    end

  let reset t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.total <- 0;
    t.sum <- 0.0
end
