type t = { id : int; client : int; created_at : Clanbft_sim.Time.t; size : int }

let default_size = 512

let make ~id ~client ~created_at ?(size = default_size) () =
  if size < 0 then invalid_arg "Transaction.make: negative size";
  { id; client; created_at; size }

let header_size = 24
let wire_size t = header_size + t.size
