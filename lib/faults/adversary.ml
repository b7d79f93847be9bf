open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Net = Clanbft_sim.Net
module Rbc = Clanbft_rbc.Rbc

type behaviour =
  | Silent
  | Equivocate of { values : string list }
  | Equivocate_biased of { value : string; decoy : string; decoys : int }
  | Withhold of { value : string; reveal : int }

let behaviour_name = function
  | Silent -> "silent"
  | Equivocate _ -> "equivocate"
  | Equivocate_biased _ -> "equivocate-biased"
  | Withhold _ -> "withhold"

let run ~sender ~n ?clan ~protocol ~net ~round behaviour =
  let tribe = Rbc.is_tribe protocol in
  let in_clan =
    if not tribe then fun _ -> true
    else
      match clan with
      | None -> invalid_arg "Adversary.run: tribe protocol needs a clan"
      | Some members ->
          let set = Bitset.create n in
          Array.iter (fun i -> ignore (Bitset.add set i)) members;
          fun i -> Bitset.mem set i
  in
  let send_val dst value =
    Net.send net ~src:sender ~dst (Rbc.Val { sender; round; value })
  in
  let send_digest dst value =
    Net.send net ~src:sender ~dst
      (Rbc.Val_digest { sender; round; digest = Digest32.hash_string value })
  in
  match behaviour with
  | Silent -> ()
  | Equivocate { values } ->
      if values = [] then invalid_arg "Adversary.run: Equivocate needs values";
      let arr = Array.of_list values in
      let slot = ref 0 in
      for dst = 0 to n - 1 do
        if dst <> sender then begin
          let v = arr.(!slot mod Array.length arr) in
          incr slot;
          if in_clan dst then send_val dst v else send_digest dst v
        end
      done
  | Equivocate_biased { value; decoy; decoys } ->
      (* Value-entitled recipients (the clan, or everyone outside the tribe
         protocols) in id order, so scenarios replay exactly. The counter is
         scoped to this invocation's arm: reusing a behaviour within a round
         must hand the same recipients the same roles. *)
      let entitled = ref 0 in
      for dst = 0 to n - 1 do
        if dst <> sender then
          if in_clan dst then begin
            incr entitled;
            if !entitled <= decoys then send_val dst decoy else send_val dst value
          end
          else send_digest dst value
      done
  | Withhold { value; reveal } ->
      let entitled = ref 0 in
      for dst = 0 to n - 1 do
        if dst <> sender then
          if in_clan dst then begin
            incr entitled;
            if !entitled <= reveal then send_val dst value
            else if tribe then send_digest dst value
            (* Non-tribe: a stiffed party gets nothing at all — honest
               non-tribe nodes ignore digest-only VALs anyway. *)
          end
          else send_digest dst value
      done

let vote ~keychain ~protocol ~net ~signer ~sender ~round ~dsts digest =
  let signed = Rbc.is_signed protocol in
  let signature =
    if signed then
      Some
        (Keychain.sign keychain ~signer
           (Rbc.echo_signing_string ~sender ~round digest))
    else None
  in
  List.iter
    (fun dst ->
      Net.send net ~src:signer ~dst
        (Rbc.Echo { sender; round; digest; signer; signature });
      if not signed then
        Net.send net ~src:signer ~dst
          (Rbc.Ready { sender; round; digest; signer; signature = None }))
    dsts
