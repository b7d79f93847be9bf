module Engine = Clanbft_sim.Engine
module Net = Clanbft_sim.Net
module Time = Clanbft_sim.Time
module Rng = Clanbft_util.Rng
module Obs = Clanbft_obs.Obs
module Trace = Clanbft_obs.Trace

type selector = All | Only of int list | Except of int list

let selects sel i =
  match sel with
  | All -> true
  | Only l -> List.mem i l
  | Except l -> not (List.mem i l)

type action =
  | Drop of float
  | Delay of { min : Time.span; max : Time.span }
  | Duplicate of int

type rule = {
  action : action;
  kinds : string list;
  src : selector;
  dst : selector;
  from_time : Time.t;
  until_time : Time.t;
  from_round : int;
  until_round : int;
}

let rule ?(kinds = []) ?(src = All) ?(dst = All) ?(from_time = 0)
    ?(until_time = max_int) ?(from_round = 0) ?(until_round = max_int) action =
  { action; kinds; src; dst; from_time; until_time; from_round; until_round }

type partition = { groups : int list list; part_from : Time.t; heal_at : Time.t }
type mute = { node : int; after_round : int; after_time : Time.t }
type plan = { rules : rule list; partitions : partition list; mutes : mute list }

let empty = { rules = []; partitions = []; mutes = [] }
let is_empty p = p.rules = [] && p.partitions = [] && p.mutes = []

let plan ?(rules = []) ?(partitions = []) ?(mutes = []) () =
  { rules; partitions; mutes }

type 'msg t = {
  mutable examined : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
}

let examined t = t.examined
let dropped t = t.dropped
let delayed t = t.delayed
let duplicated t = t.duplicated

(* Two nodes are severed by a partition iff they sit in different groups;
   a node absent from every group talks to everyone. *)
let severed p src dst =
  let group_of i =
    let rec go k = function
      | [] -> None
      | g :: rest -> if List.mem i g then Some k else go (k + 1) rest
    in
    go 0 p.groups
  in
  match (group_of src, group_of dst) with
  | Some a, Some b -> a <> b
  | _ -> false

let install ~engine ~net ~rng ?(classify = fun _ -> "") ?(round_of = fun _ -> None)
    ?(obs = Obs.disabled) plan =
  let t = { examined = 0; dropped = 0; delayed = 0; duplicated = 0 } in
  let tr = obs.Obs.trace in
  (* [rule = -1] marks mute/partition firings, which live outside the rule
     list. Fires are emitted only when a rule actually bites (a
     probabilistic drop that lets the message through is not a firing). *)
  let fire ~rule ~action ~kind ~src ~dst =
    if Trace.enabled tr then
      Trace.emit tr ~ts:(Engine.now engine)
        (Trace.Fault_fire { rule; action; kind; src; dst })
  in
  (* Delayed/duplicated traffic is re-injected outside the filter chain:
     the copy was already ruled on once, and re-offering it would also run
     any adversary strategy layered above this filter a second time. *)
  let resend ~src ~dst msg () = Net.send_unfiltered net ~src ~dst msg in
  let matches ~now ~round ~kind ~src ~dst r =
    now >= r.from_time
    && now < r.until_time
    && (match round with
       | None -> r.from_round = 0 && r.until_round = max_int
       | Some rd -> rd >= r.from_round && rd <= r.until_round)
    && (r.kinds = [] || List.mem kind r.kinds)
    && selects r.src src && selects r.dst dst
  in
  Net.set_filter net (fun ~src ~dst msg ->
      begin
        t.examined <- t.examined + 1;
        let now = Engine.now engine in
        let round = round_of msg in
        let muted =
          List.exists
            (fun m ->
              m.node = src
              && (now >= m.after_time
                 || match round with Some r -> r >= m.after_round | None -> false))
            plan.mutes
        in
        let cut =
          List.find_opt
            (fun p -> now >= p.part_from && now < p.heal_at && severed p src dst)
            plan.partitions
        in
        if muted then begin
          t.dropped <- t.dropped + 1;
          fire ~rule:(-1) ~action:"mute" ~kind:(classify msg) ~src ~dst;
          false
        end
        else
          match cut with
          | Some p when p.heal_at < max_int ->
              (* Partial synchrony: a partition delays cross-group traffic
                 rather than destroying it — buffered copies flow when the
                 partition heals (the GST of the scenario). *)
              t.delayed <- t.delayed + 1;
              fire ~rule:(-1) ~action:"partition_delay" ~kind:(classify msg) ~src ~dst;
              Engine.schedule_after engine (p.heal_at - now) (resend ~src ~dst msg);
              false
          | Some _ ->
              (* A partition that never heals is a permanent link cut. *)
              t.dropped <- t.dropped + 1;
              fire ~rule:(-1) ~action:"partition_drop" ~kind:(classify msg) ~src ~dst;
              false
          | None -> (
              let kind = classify msg in
              let rec find_rule i = function
                | [] -> None
                | r :: rest ->
                    if matches ~now ~round ~kind ~src ~dst r then Some (i, r)
                    else find_rule (i + 1) rest
              in
              match find_rule 0 plan.rules with
              | None -> true
              | Some (idx, r) -> (
                  match r.action with
                  | Drop p ->
                      if p >= 1.0 || (p > 0.0 && Rng.float rng 1.0 < p) then begin
                        t.dropped <- t.dropped + 1;
                        fire ~rule:idx ~action:"drop" ~kind ~src ~dst;
                        false
                      end
                      else true
                  | Delay { min; max } ->
                      let extra =
                        min + if max > min then Rng.int rng (max - min + 1) else 0
                      in
                      t.delayed <- t.delayed + 1;
                      fire ~rule:idx ~action:"delay" ~kind ~src ~dst;
                      Engine.schedule_after engine (Int.max 0 extra)
                        (resend ~src ~dst msg);
                      false
                  | Duplicate k ->
                      t.duplicated <- t.duplicated + k;
                      fire ~rule:idx ~action:"dup" ~kind ~src ~dst;
                      for _ = 1 to k do
                        Engine.schedule_after engine 0 (resend ~src ~dst msg)
                      done;
                      true))
      end);
  t

(* ------------------------------------------------------------------ *)
(* Textual specs *)

let ( let* ) r f = Result.bind r f

let parse_int s =
  match int_of_string_opt (String.trim s) with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer %S" s)

let parse_float s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad number %S" s)

let parse_time s =
  let s = String.trim s in
  let len = String.length s in
  let tail k = String.sub s 0 (len - k) in
  let num p k = Result.map p (parse_float (tail k)) in
  if len = 0 then Error "empty time"
  else if len > 2 && String.sub s (len - 2) 2 = "ms" then num Time.ms 2
  else if len > 2 && String.sub s (len - 2) 2 = "us" then
    Result.map Time.us (parse_int (tail 2))
  else if s.[len - 1] = 's' then num Time.s 1
  else parse_int s

let parse_ints s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* i = parse_int x in
        go (i :: acc) rest
  in
  go [] (String.split_on_char ',' s)

let parse_selector s =
  let s = String.trim s in
  if s = "*" || s = "" then Ok All
  else if s.[0] = '!' then
    Result.map (fun l -> Except l)
      (parse_ints (String.sub s 1 (String.length s - 1)))
  else Result.map (fun l -> Only l) (parse_ints s)

(* Split "a..b" into ("a", Some "b"); no ".." gives ("a", None). *)
let split_dotdot s =
  let len = String.length s in
  let rec find i =
    if i + 1 >= len then None
    else if s.[i] = '.' && s.[i + 1] = '.' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 2) (len - i - 2)))

let parse_action s =
  match String.index_opt s '=' with
  | None -> (
      match s with
      | "drop" -> Ok (Drop 1.0)
      | "delay" | "dup" -> Error (Printf.sprintf "%s needs a parameter" s)
      | _ -> Error (Printf.sprintf "unknown action %S" s))
  | Some i -> (
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match key with
      | "drop" -> Result.map (fun p -> Drop p) (parse_float v)
      | "dup" -> Result.map (fun k -> Duplicate k) (parse_int v)
      | "delay" -> (
          match split_dotdot v with
          | lo, None ->
              let* d = parse_time lo in
              Ok (Delay { min = d; max = d })
          | lo, Some hi ->
              let* min = parse_time lo in
              let* max = parse_time hi in
              if max < min then Error "delay range: max < min"
              else Ok (Delay { min; max }))
      | _ -> Error (Printf.sprintf "unknown action %S" key))

let split_kv s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "expected key=value, got %S" s)
  | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let rule_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> Error "empty rule"
  | action :: fields ->
      let* action = parse_action action in
      let rec apply r = function
        | [] -> Ok r
        | field :: rest ->
            let* key, v = split_kv field in
            let* r =
              match key with
              | "kind" ->
                  Ok { r with kinds = String.split_on_char ',' v }
              | "src" ->
                  let* sel = parse_selector v in
                  Ok { r with src = sel }
              | "dst" ->
                  let* sel = parse_selector v in
                  Ok { r with dst = sel }
              | "from" ->
                  let* time = parse_time v in
                  Ok { r with from_time = time }
              | "until" ->
                  let* time = parse_time v in
                  Ok { r with until_time = time }
              | "rounds" -> (
                  match split_dotdot v with
                  | lo, None ->
                      let* x = parse_int lo in
                      Ok { r with from_round = x; until_round = x }
                  | lo, Some hi ->
                      let* from_round =
                        if lo = "" then Ok 0 else parse_int lo
                      in
                      let* until_round =
                        if hi = "" then Ok max_int else parse_int hi
                      in
                      Ok { r with from_round; until_round })
              | _ -> Error (Printf.sprintf "unknown rule field %S" key)
            in
            apply r rest
      in
      apply (rule action) fields

let partition_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> Error "empty partition"
  | groups :: fields ->
      let* groups =
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | g :: rest ->
              let* ids = parse_ints g in
              go (ids :: acc) rest
        in
        go [] (String.split_on_char '|' groups)
      in
      if List.length groups < 2 then
        Error "partition needs at least two |-separated groups"
      else
        let rec apply p = function
          | [] -> Ok p
          | field :: rest ->
              let* key, v = split_kv field in
              let* p =
                match key with
                | "from" ->
                    let* time = parse_time v in
                    Ok { p with part_from = time }
                | "until" ->
                    let* time = parse_time v in
                    Ok { p with heal_at = time }
                | _ -> Error (Printf.sprintf "unknown partition field %S" key)
              in
              apply p rest
        in
        apply { groups; part_from = 0; heal_at = max_int } fields

let mute_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> Error "empty mute"
  | node :: fields ->
      let* node = parse_int node in
      let rec apply (round, time) = function
        | [] -> Ok (round, time)
        | field :: rest ->
            let* key, v = split_kv field in
            let* acc =
              match key with
              | "round" ->
                  let* r = parse_int v in
                  Ok (Some r, time)
              | "time" ->
                  let* t = parse_time v in
                  Ok (round, Some t)
              | _ -> Error (Printf.sprintf "unknown mute field %S" key)
            in
            apply acc rest
      in
      let* round, time = apply (None, None) fields in
      let m =
        match (round, time) with
        (* A bare node id mutes it from the very start (a classic crash). *)
        | None, None -> { node; after_round = max_int; after_time = 0 }
        | round, time ->
            {
              node;
              after_round = Option.value ~default:max_int round;
              after_time = Option.value ~default:max_int time;
            }
      in
      Ok m

(* Restarts are replica lifecycle, not a network filter: the runner tears
   the node down at [crash_at] and rebuilds it from its write-ahead log at
   [recover_at]. Parsed here so the fault DSL covers all failure modes.
   Declared after [install] so its [node] field does not shadow [mute]'s. *)
type restart = { node : int; crash_at : Time.t; recover_at : Time.t }

(* "i@t1:t2" — replica [i] crashes at [t1] and recovers at [t2]. *)
let restart_of_string s =
  let s = String.trim s in
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "expected node@crash:recover, got %S" s)
  | Some i -> (
      let* node = parse_int (String.sub s 0 i) in
      let times = String.sub s (i + 1) (String.length s - i - 1) in
      match String.index_opt times ':' with
      | None -> Error (Printf.sprintf "expected crash:recover times in %S" s)
      | Some j ->
          let* crash_at = parse_time (String.sub times 0 j) in
          let* recover_at =
            parse_time (String.sub times (j + 1) (String.length times - j - 1))
          in
          if node < 0 then Error "restart: negative node id"
          else if crash_at >= recover_at then
            Error "restart: recovery must come after the crash"
          else Ok { node; crash_at; recover_at })

let restarts_of_specs specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        let* r =
          Result.map_error
            (fun e -> Printf.sprintf "%s (in %S)" e s)
            (restart_of_string s)
        in
        go (r :: acc) rest
  in
  go [] specs

let plan_of_specs ?(rules = []) ?(partitions = []) ?(mutes = []) () =
  let map parse specs =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest ->
          let* x =
            Result.map_error (fun e -> Printf.sprintf "%s (in %S)" e s) (parse s)
          in
          go (x :: acc) rest
    in
    go [] specs
  in
  let* rules = map rule_of_string rules in
  let* partitions = map partition_of_string partitions in
  let* mutes = map mute_of_string mutes in
  Ok { rules; partitions; mutes }
