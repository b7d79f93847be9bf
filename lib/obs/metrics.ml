module Stats = Clanbft_util.Stats
module Json = Clanbft_util.Json

type counter = int ref
type gauge = float ref
type histogram = Stats.Histogram.t

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Stats.Histogram.t

type instrument = C of counter | G of gauge | H of histogram

(* Key: metric name + labels sorted by key. *)
type key = { name : string; labels : (string * string) list }

type registry = (key, instrument) Hashtbl.t

let create_registry () : registry = Hashtbl.create 64

let normalize ?(labels = []) name =
  { name; labels = List.sort compare labels }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let resolve (reg : registry) key fresh =
  match Hashtbl.find_opt reg key with
  | Some existing -> existing
  | None ->
      let inst = fresh () in
      Hashtbl.replace reg key inst;
      inst

let mismatch key ~want inst =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" key.name
       (kind_name inst) want)

let counter reg ?labels name =
  let key = normalize ?labels name in
  match resolve reg key (fun () -> C (ref 0)) with
  | C c -> c
  | inst -> mismatch key ~want:"counter" inst

let gauge reg ?labels name =
  let key = normalize ?labels name in
  match resolve reg key (fun () -> G (ref 0.0)) with
  | G g -> g
  | inst -> mismatch key ~want:"gauge" inst

let histogram reg ?labels ~buckets name =
  let key = normalize ?labels name in
  match resolve reg key (fun () -> H (Stats.Histogram.create ~buckets)) with
  | H h -> h
  | inst -> mismatch key ~want:"histogram" inst

let incr (c : counter) = Stdlib.incr c
let add (c : counter) n = c := !c + n
let counter_value (c : counter) = !c
let reset_counter (c : counter) = c := 0
let set (g : gauge) v = g := v
let observe (h : histogram) x = Stats.Histogram.observe h x
let hist (h : histogram) = h

let value_of = function
  | C c -> Counter_v !c
  | G g -> Gauge_v !g
  | H h -> Histogram_v h

let find reg ?labels name =
  Option.map value_of (Hashtbl.find_opt reg (normalize ?labels name))

let sorted_bindings (reg : registry) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) reg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold reg ~init ~f =
  List.fold_left
    (fun acc (key, inst) ->
      f acc ~name:key.name ~labels:key.labels (value_of inst))
    init (sorted_bindings reg)

(* ------------------------------------------------------------------ *)
(* JSON export *)

let bucket_json pairs =
  Json.List
    (Array.to_list
       (Array.map
          (fun (edge, count) ->
            let le =
              (* Integral edges print as integers; the overflow edge keeps
                 Prometheus' "+inf" label. *)
              if Float.is_integer edge && Float.abs edge < 1e15 then
                Json.Int (int_of_float edge)
              else if edge = Float.infinity then Json.String "+inf"
              else Json.Float edge
            in
            Json.Obj [ ("le", le); ("count", Json.Int count) ])
          pairs))

let instrument_json (key, inst) =
  let value =
    match inst with
    | C c -> [ ("type", Json.String "counter"); ("value", Json.Int !c) ]
    | G g -> [ ("type", Json.String "gauge"); ("value", Json.Float !g) ]
    | H h ->
        [
          ("type", Json.String "histogram");
          ("count", Json.Int (Stats.Histogram.count h));
          ("sum", Json.Float (Stats.Histogram.sum h));
          ("mean", Json.Float (Stats.Histogram.mean h));
          ("buckets", bucket_json (Stats.Histogram.buckets h));
          (* Prometheus-style running totals, so external tools (and the
             analyzer) can recompute quantiles without re-summing. *)
          ("cumulative", bucket_json (Stats.Histogram.cumulative h));
        ]
  in
  Json.Obj
    (("name", Json.String key.name)
    :: ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) key.labels))
    :: value)

let to_json reg =
  Json.pretty
    (Json.Obj [ ("metrics", Json.List (List.map instrument_json (sorted_bindings reg))) ])

let write_json reg path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json reg))
