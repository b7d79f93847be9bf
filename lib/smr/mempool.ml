open Clanbft_types

type t = {
  queue : Transaction.t Queue.t;
  capacity : int;
  mutable submitted : int;
  mutable rejected : int;
}

let create ?(capacity = 1_000_000) () =
  { queue = Queue.create (); capacity; submitted = 0; rejected = 0 }

let submit t txn =
  if Queue.length t.queue >= t.capacity then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    Queue.add txn t.queue;
    t.submitted <- t.submitted + 1;
    true
  end

let take t ~max =
  (* An explicit loop: [Array.init] with an effectful initializer would pop
     in unspecified element order, scrambling FIFO fairness. *)
  let count = min max (Queue.length t.queue) in
  if count = 0 then [||]
  else begin
    let first = Queue.pop t.queue in
    let out = Array.make count first in
    for i = 1 to count - 1 do
      out.(i) <- Queue.pop t.queue
    done;
    out
  end

let pending t = Queue.length t.queue
let submitted_total t = t.submitted
let rejected_total t = t.rejected
