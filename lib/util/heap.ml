type 'a t = {
  mutable prio : int array; (* heap-ordered priorities *)
  mutable seq : int array; (* insertion sequence numbers, for FIFO ties *)
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 256) ~dummy () =
  let capacity = max capacity 16 in
  {
    prio = Array.make capacity 0;
    seq = Array.make capacity 0;
    data = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let n = Array.length t.prio in
  let n' = n * 2 in
  let prio = Array.make n' 0 in
  let seq = Array.make n' 0 in
  let data = Array.make n' t.dummy in
  Array.blit t.prio 0 prio 0 n;
  Array.blit t.seq 0 seq 0 n;
  Array.blit t.data 0 data 0 n;
  t.prio <- prio;
  t.seq <- seq;
  t.data <- data

(* [less t i j] orders by priority, then insertion sequence. *)
let less t i j =
  let pi = Array.unsafe_get t.prio i and pj = Array.unsafe_get t.prio j in
  pi < pj || (pi = pj && Array.unsafe_get t.seq i < Array.unsafe_get t.seq j)

let swap t i j =
  let pi = t.prio.(i) and si = t.seq.(i) and di = t.data.(i) in
  t.prio.(i) <- t.prio.(j);
  t.seq.(i) <- t.seq.(j);
  t.data.(i) <- t.data.(j);
  t.prio.(j) <- pi;
  t.seq.(j) <- si;
  t.data.(j) <- di

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let smallest = if l + 1 < t.size && less t (l + 1) l then l + 1 else l in
    if less t smallest i then begin
      swap t i smallest;
      sift_down t smallest
    end
  end

let push t prio x =
  if t.size = Array.length t.prio then grow t;
  let i = t.size in
  t.prio.(i) <- prio;
  t.seq.(i) <- t.next_seq;
  t.data.(i) <- x;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let min_priority t =
  if t.size = 0 then invalid_arg "Heap.min_priority: empty heap";
  t.prio.(0)

let pop_data t =
  if t.size = 0 then invalid_arg "Heap.pop_data: empty heap";
  let x = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prio.(0) <- t.prio.(t.size);
    t.seq.(0) <- t.seq.(t.size);
    t.data.(0) <- t.data.(t.size)
  end;
  t.data.(t.size) <- t.dummy;
  sift_down t 0;
  x

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0;
  t.next_seq <- 0
