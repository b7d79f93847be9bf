module Json = Clanbft_util.Json

type phase = Propose | Val | Echo | Ready | Cert | Deliver | Pull_retry

let phase_name = function
  | Propose -> "propose"
  | Val -> "val"
  | Echo -> "echo"
  | Ready -> "ready"
  | Cert -> "cert"
  | Deliver -> "deliver"
  | Pull_retry -> "pull_retry"

let phase_of_name = function
  | "propose" -> Some Propose
  | "val" -> Some Val
  | "echo" -> Some Echo
  | "ready" -> Some Ready
  | "cert" -> Some Cert
  | "deliver" -> Some Deliver
  | "pull_retry" -> Some Pull_retry
  | _ -> None

type event =
  | Msg_bcast of { src : int; kind : string; bytes : int; count : int }
  | Msg_recv of { src : int; dst : int; kind : string; bytes : int }
  | Uplink of {
      node : int;
      kind : string;
      bytes : int;
      enqueued : int;
      start : int;
      depart : int;
    }
  | Rbc_phase of { node : int; sender : int; round : int; phase : phase }
  | Vertex_deliver of { node : int; round : int; source : int }
  | Vertex_commit of { node : int; round : int; source : int; leader_round : int }
  | Fault_fire of { rule : int; action : string; kind : string; src : int; dst : int }
  | Recovery of { node : int; stage : string; round : int }

type record = { ts : int; ev : event }

(* ------------------------------------------------------------------ *)
(* JSONL (serialization lives above the sink so streaming sinks can use
   it from [emit]) *)

let jsonl_of_record { ts; ev } =
  match ev with
  | Msg_bcast { src; kind; bytes; count } ->
      Printf.sprintf
        {|{"ts":%d,"type":"msg_bcast","src":%d,"kind":"%s","bytes":%d,"count":%d}|}
        ts src (Json.escape kind) bytes count
  | Msg_recv { src; dst; kind; bytes } ->
      Printf.sprintf
        {|{"ts":%d,"type":"msg_recv","src":%d,"dst":%d,"kind":"%s","bytes":%d}|}
        ts src dst (Json.escape kind) bytes
  | Uplink { node; kind; bytes; enqueued; start; depart } ->
      Printf.sprintf
        {|{"ts":%d,"type":"uplink","node":%d,"kind":"%s","bytes":%d,"enqueued":%d,"start":%d,"depart":%d}|}
        ts node (Json.escape kind) bytes enqueued start depart
  | Rbc_phase { node; sender; round; phase } ->
      Printf.sprintf
        {|{"ts":%d,"type":"rbc_phase","node":%d,"sender":%d,"round":%d,"phase":"%s"}|}
        ts node sender round (phase_name phase)
  | Vertex_deliver { node; round; source } ->
      Printf.sprintf
        {|{"ts":%d,"type":"vertex_deliver","node":%d,"round":%d,"source":%d}|}
        ts node round source
  | Vertex_commit { node; round; source; leader_round } ->
      Printf.sprintf
        {|{"ts":%d,"type":"vertex_commit","node":%d,"round":%d,"source":%d,"leader_round":%d}|}
        ts node round source leader_round
  | Fault_fire { rule; action; kind; src; dst } ->
      Printf.sprintf
        {|{"ts":%d,"type":"fault_fire","rule":%d,"action":"%s","kind":"%s","src":%d,"dst":%d}|}
        ts rule (Json.escape action) (Json.escape kind) src dst
  | Recovery { node; stage; round } ->
      Printf.sprintf
        {|{"ts":%d,"type":"recovery","node":%d,"stage":"%s","round":%d}|}
        ts node (Json.escape stage) round

(* --- parsing our own output back ----------------------------------- *)

let of_jsonl_line line =
  let ( let* ) = Option.bind in
  let* obj = Result.to_option (Json.of_string line) in
  let int_field k = match Json.member k obj with Some (Json.Int i) -> Some i | _ -> None in
  let str_field k =
    match Json.member k obj with Some (Json.String s) -> Some s | _ -> None
  in
  let* ts = int_field "ts" in
  let* typ = str_field "type" in
  let* ev =
    match typ with
    | "msg_recv" ->
        let* src = int_field "src" in
        let* dst = int_field "dst" in
        let* kind = str_field "kind" in
        let* bytes = int_field "bytes" in
        Some (Msg_recv { src; dst; kind; bytes })
    | "msg_bcast" ->
        let* src = int_field "src" in
        let* kind = str_field "kind" in
        let* bytes = int_field "bytes" in
        let* count = int_field "count" in
        Some (Msg_bcast { src; kind; bytes; count })
    | "uplink" ->
        let* node = int_field "node" in
        let* kind = str_field "kind" in
        let* bytes = int_field "bytes" in
        let* enqueued = int_field "enqueued" in
        let* start = int_field "start" in
        let* depart = int_field "depart" in
        Some (Uplink { node; kind; bytes; enqueued; start; depart })
    | "rbc_phase" ->
        let* node = int_field "node" in
        let* sender = int_field "sender" in
        let* round = int_field "round" in
        let* phase = Option.bind (str_field "phase") phase_of_name in
        Some (Rbc_phase { node; sender; round; phase })
    | "vertex_deliver" ->
        let* node = int_field "node" in
        let* round = int_field "round" in
        let* source = int_field "source" in
        Some (Vertex_deliver { node; round; source })
    | "vertex_commit" ->
        let* node = int_field "node" in
        let* round = int_field "round" in
        let* source = int_field "source" in
        let* leader_round = int_field "leader_round" in
        Some (Vertex_commit { node; round; source; leader_round })
    | "fault_fire" ->
        let* rule = int_field "rule" in
        let* action = str_field "action" in
        let* kind = str_field "kind" in
        let* src = int_field "src" in
        let* dst = int_field "dst" in
        Some (Fault_fire { rule; action; kind; src; dst })
    | "recovery" ->
        let* node = int_field "node" in
        let* stage = str_field "stage" in
        let* round = int_field "round" in
        Some (Recovery { node; stage; round })
    | _ -> None
  in
  Some { ts; ev }

(* ------------------------------------------------------------------ *)
(* Sinks *)

type t =
  | Null
  | Sink of {
      mutable records : record array;
      mutable len : int;
    }
  | Stream of { oc : out_channel; mutable written : int }

let null = Null

let dummy = { ts = 0; ev = Vertex_deliver { node = 0; round = 0; source = 0 } }

let create () = Sink { records = Array.make 1024 dummy; len = 0 }

let stream oc = Stream { oc; written = 0 }

let enabled = function Null -> false | Sink _ | Stream _ -> true

let emit t ~ts ev =
  match t with
  | Null -> ()
  | Sink s ->
      if s.len = Array.length s.records then begin
        let bigger = Array.make (2 * s.len) dummy in
        Array.blit s.records 0 bigger 0 s.len;
        s.records <- bigger
      end;
      s.records.(s.len) <- { ts; ev };
      s.len <- s.len + 1
  | Stream s ->
      output_string s.oc (jsonl_of_record { ts; ev });
      output_char s.oc '\n';
      s.written <- s.written + 1

let length = function Null -> 0 | Sink s -> s.len | Stream s -> s.written

let iter t f =
  match t with
  | Null | Stream _ -> ()
  | Sink s ->
      for i = 0 to s.len - 1 do
        f s.records.(i)
      done

let records t =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc);
  List.rev !acc

let require_buffered t fn =
  match t with
  | Stream _ ->
      invalid_arg
        (Printf.sprintf
           "Trace.%s: streaming sinks write at emission time and retain \
            nothing to export"
           fn)
  | Null | Sink _ -> ()

let write_jsonl t path =
  require_buffered t "write_jsonl";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      iter t (fun r ->
          output_string oc (jsonl_of_record r);
          output_char oc '\n'))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event *)

(* One trace_event object; instants ([dur = None]) are thread-scoped. *)
let chrome_event ~name ~cat ?dur ~ts ~pid ~tid args =
  let timing =
    match dur with
    | None -> [ ("ph", Json.String "i"); ("s", Json.String "t"); ("ts", Json.Int ts) ]
    | Some d -> [ ("ph", Json.String "X"); ("ts", Json.Int ts); ("dur", Json.Int d) ]
  in
  Json.Obj
    ((("name", Json.String name) :: ("cat", Json.String cat) :: timing)
    @ [ ("pid", Json.Int pid); ("tid", Json.Int tid); ("args", Json.Obj args) ])

let ints fields = List.map (fun (k, v) -> (k, Json.Int v)) fields

(* The natural RBC span chain for one (node, sender, round) instance:
   PROPOSE → VAL → ECHO → READY → CERT → Deliver. Pull retries are
   repeatable side traffic with no successor, so they stay instants. *)
let chain_phase = function
  | Propose | Val | Echo | Ready | Cert | Deliver -> true
  | Pull_retry -> false

(* Map each chain-phase record (by emission index) to the time until the
   instance's next chain phase — the duration of its "X" span. The last
   phase of an instance has no successor and renders as an instant. *)
let rbc_span_durations t =
  let last_of_inst = Hashtbl.create 256 in
  let durations = Hashtbl.create 256 in
  let idx = ref (-1) in
  iter t (fun { ts; ev } ->
      incr idx;
      match ev with
      | Rbc_phase { node; sender; round; phase } when chain_phase phase ->
          let key = (node, sender, round) in
          (match Hashtbl.find_opt last_of_inst key with
          | Some (prev_idx, prev_ts) ->
              Hashtbl.replace durations prev_idx (max 0 (ts - prev_ts))
          | None -> ());
          Hashtbl.replace last_of_inst key (!idx, ts)
      | _ -> ());
  durations

let write_chrome t path =
  require_buffered t "write_chrome";
  let b = Buffer.create 65536 in
  (* Events are rendered one at a time into the array body, so the export
     never holds a second, tree-shaped copy of the trace. *)
  let add ev =
    if Buffer.length b > 0 then Buffer.add_char b ',';
    Json.to_buffer b ev
  in
  let pids = Hashtbl.create 64 in
  let note_pid p =
    if not (Hashtbl.mem pids p) then begin
      Hashtbl.replace pids p ();
      add
        (Json.Obj
           [
             ("name", Json.String "process_name");
             ("ph", Json.String "M");
             ("pid", Json.Int p);
             ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "node %d" p)) ]);
           ])
    end
  in
  let span_durations = rbc_span_durations t in
  let idx = ref (-1) in
  iter t (fun { ts; ev } ->
      incr idx;
      match ev with
      | Msg_bcast { src; kind; bytes; count } ->
          note_pid src;
          add
            (chrome_event ~name:("bcast " ^ kind) ~cat:"net" ~ts ~pid:src ~tid:0
               (ints [ ("count", count); ("bytes", bytes) ]))
      | Msg_recv { src; dst; kind; bytes } ->
          note_pid dst;
          add
            (chrome_event ~name:("recv " ^ kind) ~cat:"net" ~ts ~pid:dst ~tid:0
               (ints [ ("src", src); ("bytes", bytes) ]))
      | Uplink { node; kind; bytes; enqueued; start; depart } ->
          note_pid node;
          add
            (chrome_event ~name:kind ~cat:"uplink" ~ts:start
               ~dur:(max 0 (depart - start))
               ~pid:node ~tid:1
               (ints [ ("bytes", bytes); ("queued_us", max 0 (start - enqueued)) ]))
      | Rbc_phase { node; sender; round; phase } ->
          note_pid node;
          (* A chain phase spans until the instance's next phase, so
             Perfetto shows VAL→ECHO→CERT→deliver latency directly. *)
          add
            (chrome_event
               ~name:(Printf.sprintf "rbc %s r%d/s%d" (phase_name phase) round sender)
               ~cat:"rbc" ?dur:(Hashtbl.find_opt span_durations !idx) ~ts ~pid:node
               ~tid:2
               (ints [ ("sender", sender); ("round", round) ]))
      | Vertex_deliver { node; round; source } ->
          note_pid node;
          add
            (chrome_event
               ~name:(Printf.sprintf "deliver r%d/s%d" round source)
               ~cat:"dag" ~ts ~pid:node ~tid:3
               (ints [ ("round", round); ("source", source) ]))
      | Vertex_commit { node; round; source; leader_round } ->
          note_pid node;
          add
            (chrome_event
               ~name:(Printf.sprintf "commit r%d/s%d" round source)
               ~cat:"dag" ~ts ~pid:node ~tid:3
               (ints [ ("round", round); ("source", source); ("leader_round", leader_round) ]))
      | Fault_fire { rule; action; kind; src; dst } ->
          note_pid src;
          add
            (chrome_event
               ~name:(Printf.sprintf "fault %s %s" action kind)
               ~cat:"fault" ~ts ~pid:src ~tid:4
               (ints [ ("rule", rule); ("dst", dst) ]))
      | Recovery { node; stage; round } ->
          note_pid node;
          add
            (chrome_event
               ~name:(Printf.sprintf "recovery %s r%d" stage round)
               ~cat:"recovery" ~ts ~pid:node ~tid:5
               (ints [ ("round", round) ])));
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc {|{"traceEvents":[|};
      Buffer.output_buffer oc b;
      output_string oc {|],"displayTimeUnit":"ms"}|})
