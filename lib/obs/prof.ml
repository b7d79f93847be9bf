(* Global, unsynchronized profiler state: the hot path must be a handful of
   array stores, and the simulator's profiled runs are single-domain by
   contract (see the .mli). All counters are native ints.

   Allocation attribution subtracts a calibrated constant per span: the
   probe reads themselves allocate (the [Gc.counters] tuple and its float
   boxes; the clock read allocates nothing), and since that cost is
   a constant number of words per probe it can be measured once and
   removed exactly — keeping the reported words deterministic and equal to
   what the instrumented code itself allocated. *)

module Json = Clanbft_util.Json

external monotonic_ns : unit -> (int64[@unboxed])
  = "clanbft_monotonic_ns_byte" "clanbft_monotonic_ns"
[@@noalloc]

let now_ns () = Int64.to_int (monotonic_ns ())

(* Minor words come from [Gc.minor_words], which is exact: the minor count
   in OCaml 5.1's [Gc.counters] advances only at minor collections. Major
   words are the ones allocated there directly; promotions are left out,
   since they land in whichever span a minor collection happens to
   interrupt. The probes' own allocations (the [Gc.counters] tuple and
   float boxes) are part of the calibrated probe constant. *)
let heap_words () =
  let _, promoted, major = Gc.counters () in
  (int_of_float (Gc.minor_words ()), int_of_float (major -. promoted))

(* ------------------------------------------------------------------ *)
(* Sections *)

type section = int

let max_sections = 512
let sec_names = Array.make max_sections ""
let sec_count = ref 0
let sec_tbl : (string, int) Hashtbl.t = Hashtbl.create 64

let section name =
  match Hashtbl.find_opt sec_tbl name with
  | Some id -> id
  | None ->
      if name = "" then invalid_arg "Prof.section: empty name";
      String.iter
        (fun c ->
          if c = ';' || c = ' ' || c = '\n' || c = '\t' then
            invalid_arg ("Prof.section: name must not contain ';'/whitespace: " ^ name))
        name;
      if !sec_count >= max_sections then invalid_arg "Prof.section: too many sections";
      let id = !sec_count in
      sec_names.(id) <- name;
      incr sec_count;
      Hashtbl.replace sec_tbl name id;
      id

(* ------------------------------------------------------------------ *)
(* Per-section aggregates *)

let a_calls = Array.make max_sections 0
let a_self_ns = Array.make max_sections 0
let a_incl_ns = Array.make max_sections 0
let a_self_minor = Array.make max_sections 0
let a_incl_minor = Array.make max_sections 0
let a_self_major = Array.make max_sections 0
let a_incl_major = Array.make max_sections 0
let a_active = Array.make max_sections 0

(* ------------------------------------------------------------------ *)
(* Call tree: node 0 is the root; nodes are created on first visit of a
   (parent, section) path and keyed by [parent lsl 16 lor section] (node
   ids stay far below 2^46, sections below 2^9). *)

let node_cap = ref 256
let node_section = ref (Array.make !node_cap (-1))
let node_parent = ref (Array.make !node_cap (-1))
let node_calls = ref (Array.make !node_cap 0)
let node_self_ns = ref (Array.make !node_cap 0)
let node_self_minor = ref (Array.make !node_cap 0)
let node_self_major = ref (Array.make !node_cap 0)
let node_count = ref 1 (* root *)
let node_tbl : (int, int) Hashtbl.t = Hashtbl.create 256

let grow_nodes () =
  let cap = 2 * !node_cap in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit !a 0 b 0 !node_cap;
    a := b
  in
  extend node_section (-1);
  extend node_parent (-1);
  extend node_calls 0;
  extend node_self_ns 0;
  extend node_self_minor 0;
  extend node_self_major 0;
  node_cap := cap

let node_of parent s =
  let key = (parent lsl 16) lor s in
  match Hashtbl.find node_tbl key with
  | nd -> nd
  | exception Not_found ->
      if !node_count >= !node_cap then grow_nodes ();
      let nd = !node_count in
      !node_section.(nd) <- s;
      !node_parent.(nd) <- parent;
      incr node_count;
      Hashtbl.replace node_tbl key nd;
      nd

(* ------------------------------------------------------------------ *)
(* Frame stack (preallocated; grows by doubling, never shrinks) *)

let stack_cap = ref 64
let stk_sec = ref (Array.make !stack_cap 0)
let stk_node = ref (Array.make !stack_cap 0)
let stk_t0 = ref (Array.make !stack_cap 0)
let stk_m0 = ref (Array.make !stack_cap 0)
let stk_j0 = ref (Array.make !stack_cap 0)
let stk_child_ns = ref (Array.make !stack_cap 0)
let stk_child_minor = ref (Array.make !stack_cap 0)
let stk_child_major = ref (Array.make !stack_cap 0)
let stk_desc = ref (Array.make !stack_cap 0)
let depth = ref 0

let grow_stack () =
  let cap = 2 * !stack_cap in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit !a 0 b 0 !stack_cap;
    a := b
  in
  extend stk_sec;
  extend stk_node;
  extend stk_t0;
  extend stk_m0;
  extend stk_j0;
  extend stk_child_ns;
  extend stk_child_minor;
  extend stk_child_major;
  extend stk_desc;
  stack_cap := cap

(* ------------------------------------------------------------------ *)
(* Switch + calibration constants *)

let on = ref false
let enabled () = !on

(* Words one leaf span's own probes allocate inside its window (c_leaf)
   and outside it, into the parent's window (c_ext). *)
let c_leaf_minor = ref 0
let c_leaf_major = ref 0
let c_ext_minor = ref 0
let c_ext_major = ref 0
let calibrated = ref false

let probe_overhead () = (!c_leaf_minor + !c_ext_minor, !c_leaf_major + !c_ext_major)

let reset () =
  if !depth <> 0 then failwith "Prof.reset: open spans";
  Array.fill a_calls 0 max_sections 0;
  Array.fill a_self_ns 0 max_sections 0;
  Array.fill a_incl_ns 0 max_sections 0;
  Array.fill a_self_minor 0 max_sections 0;
  Array.fill a_incl_minor 0 max_sections 0;
  Array.fill a_self_major 0 max_sections 0;
  Array.fill a_incl_major 0 max_sections 0;
  Array.fill a_active 0 max_sections 0;
  Array.fill !node_calls 0 !node_cap 0;
  Array.fill !node_self_ns 0 !node_cap 0;
  Array.fill !node_self_minor 0 !node_cap 0;
  Array.fill !node_self_major 0 !node_cap 0

(* ------------------------------------------------------------------ *)
(* Hot path *)

let enter s =
  if !on then begin
    let d = !depth in
    if d >= !stack_cap then grow_stack ();
    let stk_sec = !stk_sec
    and stk_node = !stk_node
    and stk_child_ns = !stk_child_ns
    and stk_child_minor = !stk_child_minor
    and stk_child_major = !stk_child_major
    and stk_desc = !stk_desc in
    stk_sec.(d) <- s;
    let parent = if d = 0 then 0 else stk_node.(d - 1) in
    stk_node.(d) <- node_of parent s;
    stk_child_ns.(d) <- 0;
    stk_child_minor.(d) <- 0;
    stk_child_major.(d) <- 0;
    stk_desc.(d) <- 0;
    a_active.(s) <- a_active.(s) + 1;
    depth := d + 1;
    (* Probe reads go last so all bookkeeping above — including first-visit
       node creation — stays outside this span's window (it lands in the
       parent's, a constant per distinct path). *)
    let m0, j0 = heap_words () in
    !stk_m0.(d) <- m0;
    !stk_j0.(d) <- j0;
    !stk_t0.(d) <- now_ns ()
  end

let leave s =
  if !on then begin
    let t1 = now_ns () in
    let m1, j1 = heap_words () in
    let d = !depth - 1 in
    if d < 0 then failwith "Prof.leave: no open span";
    if !stk_sec.(d) <> s then
      failwith
        (Printf.sprintf "Prof.leave: unbalanced (open %s, leaving %s)"
           sec_names.(!stk_sec.(d)) sec_names.(s));
    depth := d;
    let desc = !stk_desc.(d) in
    let incl_ns = t1 - !stk_t0.(d) in
    let incl_minor =
      m1 - !stk_m0.(d) - !c_leaf_minor - (desc * (!c_leaf_minor + !c_ext_minor))
    in
    let incl_major =
      j1 - !stk_j0.(d) - !c_leaf_major - (desc * (!c_leaf_major + !c_ext_major))
    in
    let self_ns = incl_ns - !stk_child_ns.(d) in
    let self_minor = incl_minor - !stk_child_minor.(d) in
    let self_major = incl_major - !stk_child_major.(d) in
    a_calls.(s) <- a_calls.(s) + 1;
    a_self_ns.(s) <- a_self_ns.(s) + self_ns;
    a_self_minor.(s) <- a_self_minor.(s) + self_minor;
    a_self_major.(s) <- a_self_major.(s) + self_major;
    let act = a_active.(s) - 1 in
    a_active.(s) <- act;
    if act = 0 then begin
      (* Recursive re-entries fold into the outermost span's inclusive. *)
      a_incl_ns.(s) <- a_incl_ns.(s) + incl_ns;
      a_incl_minor.(s) <- a_incl_minor.(s) + incl_minor;
      a_incl_major.(s) <- a_incl_major.(s) + incl_major
    end;
    let nd = !stk_node.(d) in
    !node_calls.(nd) <- !node_calls.(nd) + 1;
    !node_self_ns.(nd) <- !node_self_ns.(nd) + self_ns;
    !node_self_minor.(nd) <- !node_self_minor.(nd) + self_minor;
    !node_self_major.(nd) <- !node_self_major.(nd) + self_major;
    if d > 0 then begin
      let p = d - 1 in
      !stk_child_ns.(p) <- !stk_child_ns.(p) + incl_ns;
      !stk_child_minor.(p) <- !stk_child_minor.(p) + incl_minor;
      !stk_child_major.(p) <- !stk_child_major.(p) + incl_major;
      !stk_desc.(p) <- !stk_desc.(p) + desc + 1
    end
  end

let span s f =
  if not !on then f ()
  else begin
    enter s;
    match f () with
    | v ->
        leave s;
        v
    | exception e ->
        leave s;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Calibration: measure the probe constants with the real machinery, then
   wipe the scratch data. Runs once, on the first enable (nothing can have
   accumulated while disabled, so the reset loses nothing). Repetitions
   take the minimum, so one odd rep cannot skew the constant. *)

let calibrate () =
  let s1 = section "prof.calib.a" and s2 = section "prof.calib.b" in
  (* Warm the tree paths so node creation is out of the measured reps. *)
  enter s1;
  leave s1;
  enter s1;
  enter s2;
  leave s2;
  leave s1;
  c_leaf_minor := 0;
  c_leaf_major := 0;
  c_ext_minor := 0;
  c_ext_major := 0;
  let best_minor = ref max_int and best_major = ref max_int in
  for _ = 1 to 8 do
    reset ();
    enter s1;
    leave s1;
    if a_self_minor.(s1) < !best_minor then best_minor := a_self_minor.(s1);
    if a_self_major.(s1) < !best_major then best_major := a_self_major.(s1)
  done;
  c_leaf_minor := max 0 !best_minor;
  c_leaf_major := max 0 !best_major;
  (* With c_leaf in place, a parent around one empty child measures exactly
     the residue each child's closing probes leak into its parent. *)
  best_minor := max_int;
  best_major := max_int;
  for _ = 1 to 8 do
    reset ();
    enter s1;
    enter s2;
    leave s2;
    leave s1;
    if a_incl_minor.(s1) < !best_minor then best_minor := a_incl_minor.(s1);
    if a_incl_major.(s1) < !best_major then best_major := a_incl_major.(s1)
  done;
  c_ext_minor := max 0 !best_minor;
  c_ext_major := max 0 !best_major;
  reset ();
  calibrated := true

let set_enabled v =
  if v && not !on then begin
    on := true;
    if not !calibrated then calibrate ()
  end
  else if not v then on := false

(* ------------------------------------------------------------------ *)
(* Reporting *)

type row = {
  name : string;
  calls : int;
  self_ns : int;
  incl_ns : int;
  self_minor_words : int;
  incl_minor_words : int;
  self_major_words : int;
  incl_major_words : int;
}

let report () =
  let rows = ref [] in
  for s = !sec_count - 1 downto 0 do
    if a_calls.(s) > 0 then
      rows :=
        {
          name = sec_names.(s);
          calls = a_calls.(s);
          self_ns = a_self_ns.(s);
          incl_ns = a_incl_ns.(s);
          self_minor_words = a_self_minor.(s);
          incl_minor_words = a_incl_minor.(s);
          self_major_words = a_self_major.(s);
          incl_major_words = a_incl_major.(s);
        }
        :: !rows
  done;
  List.sort (fun a b -> compare a.name b.name) !rows

(* Children of each tree node, in creation order (deterministic for a
   deterministic run: creation order is first-visit order). *)
let tree_children () =
  let children = Array.make !node_count [] in
  for nd = !node_count - 1 downto 1 do
    children.(!node_parent.(nd)) <- nd :: children.(!node_parent.(nd))
  done;
  children

let iter_tree_paths f =
  let children = tree_children () in
  let rec visit path nd =
    let path =
      if nd = 0 then path else sec_names.(!node_section.(nd)) :: path
    in
    if nd <> 0 && !node_calls.(nd) > 0 then f (List.rev path) nd;
    List.iter (visit path) children.(nd)
  in
  visit [] 0

let folded () =
  let b = Buffer.create 4096 in
  iter_tree_paths (fun path nd ->
      Buffer.add_string b (String.concat ";" path);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int (max 0 (!node_self_ns.(nd) / 1000)));
      Buffer.add_char b '\n');
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Heap census *)

(* Each row is charged what its roots add to the words reachable from the
   rows before it, so a value several rows reach counts once, for the
   first. The prefix is one list whose cons cells (3 words per root) the
   pass also reaches; they are taken back out. *)
let census rows =
  let _, _, charged =
    List.fold_left
      (fun (prefix, before, charged) (name, roots) ->
        let prefix = List.rev_append roots prefix in
        let reached = Obj.reachable_words (Obj.repr prefix) in
        (prefix, reached, (name, reached - before - (3 * List.length roots)) :: charged))
      ([], 0, []) rows
  in
  List.rev charged

let to_json ?census () =
  let int i = Json.Int i in
  let section r =
    Json.Obj
      [
        ("name", Json.String r.name);
        ("calls", int r.calls);
        ("self_ns", int r.self_ns);
        ("incl_ns", int r.incl_ns);
        ("self_minor_words", int r.self_minor_words);
        ("incl_minor_words", int r.incl_minor_words);
        ("self_major_words", int r.self_major_words);
        ("incl_major_words", int r.incl_major_words);
      ]
  in
  let tree = ref [] in
  iter_tree_paths (fun path nd ->
      tree :=
        Json.Obj
          [
            ("path", Json.String (String.concat ";" path));
            ("calls", int !node_calls.(nd));
            ("self_ns", int !node_self_ns.(nd));
            ("self_minor_words", int !node_self_minor.(nd));
            ("self_major_words", int !node_self_major.(nd));
          ]
        :: !tree);
  let census =
    match census with
    | None -> []
    | Some rows ->
        let row (name, words) =
          Json.Obj [ ("subsystem", Json.String name); ("live_words", int words) ]
        in
        [ ("census", Json.List (List.map row rows)) ]
  in
  Json.pretty
    (Json.Obj
       ([
          ("schema", Json.String "clanbft/profile/v1");
          ( "probe_overhead",
            Json.Obj
              [
                ("minor_words", int (!c_leaf_minor + !c_ext_minor));
                ("major_words", int (!c_leaf_major + !c_ext_major));
              ] );
          ("sections", Json.List (List.map section (report ())));
          ("tree", Json.List (List.rev !tree));
        ]
       @ census))

let table ?census () =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let rows =
    List.sort (fun a b -> compare (b.self_ns, b.name) (a.self_ns, a.name)) (report ())
  in
  pf "-- profile: self/total by section (sorted by self time) --\n";
  pf "%-24s %12s %12s %12s %14s %14s %12s\n" "section" "calls" "self ms"
    "total ms" "self minor w" "total minor w" "self major w";
  List.iter
    (fun r ->
      pf "%-24s %12d %12.3f %12.3f %14d %14d %12d\n" r.name r.calls
        (float_of_int r.self_ns /. 1e6)
        (float_of_int r.incl_ns /. 1e6)
        r.self_minor_words r.incl_minor_words r.self_major_words)
    rows;
  (match census with
  | None -> ()
  | Some rows ->
      let total = List.fold_left (fun acc (_, w) -> acc + w) 0 rows in
      pf "\n-- heap census: reachable words by subsystem, in charging order --\n";
      pf "%-24s %14s %10s\n" "subsystem" "words" "MiB";
      List.iter
        (fun (name, words) ->
          pf "%-24s %14d %10.2f\n" name words
            (float_of_int words *. 8.0 /. 1048576.0))
        rows;
      pf "%-24s %14d %10.2f\n" "TOTAL" total
        (float_of_int total *. 8.0 /. 1048576.0));
  Buffer.contents b
