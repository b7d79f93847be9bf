type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emitting *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  (* Trace streams escape every message kind, and those are plain
     identifiers: skip the copy when nothing needs escaping. *)
  if not (String.exists needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b
  end

let float_to_string f =
  if not (Float.is_finite f) then "null"
  else
    let shortest =
      let rec go p =
        let s = Printf.sprintf "%.*g" p f in
        if p >= 17 || float_of_string s = f then s else go (p + 1)
      in
      go 15
    in
    if String.exists (fun c -> c = '.' || c = 'e') shortest then shortest
    else shortest ^ ".0"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_string f)
  | String s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        items;
      Buffer.add_char b ']'
  | Obj members ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b (String k);
          Buffer.add_char b ':';
          to_buffer b v)
        members;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let width = 100

let pretty v =
  let b = Buffer.create 4096 in
  let newline indent =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ')
  in
  (* [col] is where [v] starts on the current line, [indent] that line's
     indentation. *)
  let rec go ~indent ~col v =
    let flat = to_string v in
    let members =
      match v with
      | List items -> List.map (fun x -> (None, x)) items
      | Obj fields -> List.map (fun (k, x) -> (Some k, x)) fields
      | _ -> []
    in
    let scalar = function List _ | Obj _ -> false | _ -> true in
    if List.for_all (fun (_, x) -> scalar x) members || col + String.length flat <= width
    then
      Buffer.add_string b flat
    else begin
      let inner = indent + 2 in
      let opening, closing = match v with Obj _ -> ('{', '}') | _ -> ('[', ']') in
      Buffer.add_char b opening;
      List.iteri
        (fun i (key, x) ->
          if i > 0 then Buffer.add_char b ',';
          newline inner;
          let col =
            match key with
            | None -> inner
            | Some k ->
                let k = to_string (String k) ^ ": " in
                Buffer.add_string b k;
                inner + String.length k
          in
          go ~indent:inner ~col x)
        members;
      newline indent;
      Buffer.add_char b closing
    end
  in
  go ~indent:0 ~col:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Fail of string

let max_depth = 512

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise_notrace (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      v
    end
    else fail "bad literal"
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          incr pos;
          Buffer.contents b
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' ->
              if !pos + 4 >= len then fail "short \\u escape";
              let code =
                (hex s.[!pos + 1] lsl 12)
                lor (hex s.[!pos + 2] lsl 8)
                lor (hex s.[!pos + 3] lsl 4)
                lor hex s.[!pos + 4]
              in
              if code > 0xff then fail "\\u escape above 00ff";
              Buffer.add_char b (Char.chr code);
              pos := !pos + 4
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | Some c when Char.code c < 0x20 -> fail "raw control byte in string"
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      if !pos = d0 then fail "expected a digit"
    in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    match (if !integral then int_of_string_opt lit else None) with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let acc = (k, value (depth + 1)) :: acc in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields acc
            | Some '}' ->
                incr pos;
                Obj (List.rev acc)
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let acc = value (depth + 1) :: acc in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items acc
            | Some ']' ->
                incr pos;
                List (List.rev acc)
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> String (string_lit ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
