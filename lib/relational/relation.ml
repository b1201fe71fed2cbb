type t = {
  schema : Schema.t;
  keys : string list list;
  coded : Columnar.t;  (** the rows, as {!Intern} code columns *)
  mutable rows : Tuple.t array option;
      (** the rows as tuples, once decoded, or as [of_tuples] was given
          them: a cache of [coded], never the other way round *)
}

exception Key_violation of { key : string list; tuple : Tuple.t }

let default_keys schema keys =
  match keys with [] -> [ Schema.names schema ] | _ :: _ -> keys

(* ---- coded construction ---- *)

type builder = {
  b_schema : Schema.t;
  b_keys : string list list;
  mutable cols : int array array;  (** cols.(attr).(row), [capacity] rows *)
  mutable capacity : int;
  mutable n : int;  (** rows kept *)
  declared : bool;
  on : int array array;
      (** per checked key (the declared keys before the first that names
          a missing attribute), its column positions; with no declared
          key, one entry over every column *)
  mutable key_cols : int array array array;
      (** per checked key, its columns of [cols] *)
  sets : Code_table.t array;  (** per checked key, the rows kept *)
  missing : string option;  (** that first missing attribute *)
  mutable live : int;
      (** the sets that can still decide the outcome: all of them until
          a row breaks a key [k], then those before [k] *)
  mutable witness : int;  (** the first row that broke key [live] *)
}

let select cols on = Array.map (Array.map (fun p -> cols.(p))) on

let builder ~rows schema ~keys =
  let arity = Schema.arity schema in
  let capacity = max rows 0 in
  let rec checked = function
    | [] -> ([], None)
    | key :: rest -> (
        match List.find_opt (fun a -> not (Schema.mem schema a)) key with
        | Some a -> ([], Some a)
        | None ->
            let on, missing = checked rest in
            let positions = List.map (Schema.index_of schema) key in
            (Array.of_list positions :: on, missing))
  in
  let on, missing =
    if keys = [] then ([ Array.init arity Fun.id ], None) else checked keys
  in
  let on = Array.of_list on in
  let cols = Array.init arity (fun _ -> Array.make capacity 0) in
  {
    b_schema = schema;
    b_keys = keys;
    cols;
    capacity;
    n = 0;
    declared = keys <> [];
    on;
    key_cols = select cols on;
    sets = Array.map (fun _ -> Code_table.create capacity) on;
    missing;
    live = Array.length on;
    witness = -1;
  }

let grow b =
  let capacity = max 16 (2 * b.capacity) in
  b.cols <-
    Array.map
      (fun col ->
        let wider = Array.make capacity 0 in
        Array.blit col 0 wider 0 b.n;
        wider)
      b.cols;
  b.key_cols <- select b.cols b.on;
  b.capacity <- capacity

let break b k i =
  b.live <- k;
  b.witness <- i

let rec has_null cols i k =
  k < Array.length cols
  && (cols.(k).(i) = Intern.null_code || has_null cols i (k + 1))

(* The candidate row goes into slot [n] and is probed there: kept, it
   stays; an exact duplicate is overwritten by the next row. With a
   declared key, key 0's table also finds exact duplicates — equal rows
   agree on every key, and rows kept so far carry no NULL on key 0 — so
   no table over the whole row is needed. A table that finds no equal
   row adds the candidate in the same probe: every table reached before
   a key breaks holds the kept row, as it must. *)
let add_codes b codes =
  let arity = Array.length b.cols in
  if Array.length codes <> arity then
    invalid_arg "Relation.add_codes: a row of the wrong arity";
  if b.live > 0 then begin
    if b.n = b.capacity then grow b;
    let i = b.n and cols = b.cols in
    for a = 0 to arity - 1 do
      cols.(a).(i) <- codes.(a)
    done;
    let first = b.key_cols.(0) in
    if b.declared && has_null first i 0 then break b 0 i
    else
      let j = Code_table.find_or_add b.sets.(0) first i in
      if j <> i then begin
        if b.declared && not (Array.for_all (fun col -> col.(i) = col.(j)) cols)
        then break b 0 i
      end
      else begin
        let k = ref 1 in
        while !k < b.live do
          let on = b.key_cols.(!k) in
          if has_null on i 0 || Code_table.find_or_add b.sets.(!k) on i <> i
          then break b !k i
          else incr k
        done;
        b.n <- i + 1
      end
  end

let decode schema cols i =
  Tuple.of_array schema (Array.map (fun col -> Intern.value col.(i)) cols)

let code_columns c =
  Array.init (Schema.arity (Columnar.schema c)) (Columnar.nth c)

(* What [build] raises for the rows offered so far, if anything. *)
let valid b =
  if b.live < Array.length b.sets then
    raise
      (Key_violation
         {
           key = List.nth b.b_keys b.live;
           tuple = decode b.b_schema b.cols b.witness;
         });
  Option.iter (fun a -> raise (Schema.Unknown_attribute a)) b.missing

let build b =
  valid b;
  let schema = b.b_schema and n = b.n in
  (* Full columns are handed over as they are: a later [add_codes] grows
     them into new arrays before it writes. *)
  let cols =
    if n = b.capacity then b.cols
    else Array.map (fun col -> Array.sub col 0 n) b.cols
  in
  (* Every code must be one [Intern] returned, as a decode would check. *)
  let known = Intern.size () in
  Array.iter
    (Array.iter (fun c -> if c < 0 || c >= known then ignore (Intern.value c)))
    cols;
  { schema; keys = b.b_keys; coded = Columnar.make schema n cols; rows = None }

let add_rows b cols n =
  let codes = Array.make (Array.length cols) 0 in
  for i = 0 to n - 1 do
    Array.iteri (fun a col -> codes.(a) <- col.(i)) cols;
    add_codes b codes
  done

(* Rows [0 .. n-1] of [cols] through a builder. *)
let of_rows schema ~keys n cols =
  let b = builder ~rows:n schema ~keys in
  add_rows b cols n;
  build b

(* The candidate goes into slot [n] as the codes its cells already have,
   [-1] for a cell never interned: such a cell is in no kept row, so it
   equals none, and the probes find what [add_codes] would without
   interning anything. A hit on key 0 is an exact duplicate when every
   cell agrees; any other hit, or a NULL on a declared key, breaks that
   key, and the first in declaration order is the one raised. *)
let check b tuple =
  valid b;
  let arity = Array.length b.cols in
  let got = Tuple.arity tuple in
  if got <> arity then raise (Tuple.Arity_mismatch { expected = arity; got });
  if b.n = b.capacity then grow b;
  let i = b.n and cols = b.cols in
  for a = 0 to arity - 1 do
    cols.(a).(i) <-
      (match Intern.find (Tuple.nth tuple a) with Some c -> c | None -> -1)
  done;
  let rec probe k =
    k = Array.length b.sets
    ||
    let on = b.key_cols.(k) in
    let j =
      if b.declared && has_null on i 0 then -2
      else Code_table.find b.sets.(k) on on i
    in
    if j = -1 then probe (k + 1)
    else if k = 0 && j >= 0 && Array.for_all (fun col -> col.(i) = col.(j)) cols
    then false
    else raise (Key_violation { key = List.nth b.b_keys k; tuple })
  in
  probe 0

let append b tuple =
  check b tuple
  &&
  let codes = Array.init (Array.length b.cols) (fun a -> Intern.code (Tuple.nth tuple a)) in
  add_codes b codes;
  true

let builder_schema b = b.b_schema
let kept b = b.n

let kept_code b i a =
  if i < 0 || i >= b.n then invalid_arg "Relation.kept_code: no such row";
  b.cols.(a).(i)

let kept_row b i =
  if i < 0 || i >= b.n then invalid_arg "Relation.kept_row: no such row";
  decode b.b_schema b.cols i

(* Probed from a one-row store of the values' codes: a value never
   interned is in no kept row. *)
let find_key b values =
  valid b;
  let on = b.key_cols.(0) in
  if Array.length values <> Array.length on then None
  else
    let codes = Array.map Intern.find values in
    if Array.exists Option.is_none codes then None
    else
      let probe = Array.map (fun c -> [| Option.get c |]) codes in
      match Code_table.find b.sets.(0) on probe 0 with
      | -1 -> None
      | i -> Some i

let of_columnar c =
  of_rows (Columnar.schema c) ~keys:[] (Columnar.length c) (code_columns c)

(* A row the builder keeps raises its count; the tuples of those rows
   become the decode cache, so [tuples] gives back the values offered. *)
let of_tuples schema ?(keys = []) tuples =
  let arity = Schema.arity schema in
  let b = builder ~rows:(List.length tuples) schema ~keys in
  let codes = Array.make arity 0 in
  let kept = ref [] in
  List.iter
    (fun t ->
      let got = Tuple.arity t in
      if got <> arity then raise (Tuple.Arity_mismatch { expected = arity; got });
      for a = 0 to arity - 1 do
        codes.(a) <- Intern.code (Tuple.nth t a)
      done;
      let before = b.n in
      add_codes b codes;
      if b.n > before then kept := t :: !kept)
    tuples;
  let r = build b in
  r.rows <- Some (Array.of_list (List.rev !kept));
  r

let create schema ?(keys = []) value_rows =
  of_tuples schema ~keys (List.map (Tuple.make schema) value_rows)

let empty schema ?(keys = []) () = of_tuples schema ~keys []

let schema r = r.schema
let columnar r = r.coded
let cardinality r = Columnar.length r.coded

let rows r =
  match r.rows with
  | Some rows -> rows
  | None ->
      let rows =
        Array.init (cardinality r) (decode r.schema (code_columns r.coded))
      in
      r.rows <- Some rows;
      rows

let row r i =
  if i < 0 || i >= cardinality r then invalid_arg "Relation.row: no such row";
  match r.rows with
  | Some rows -> rows.(i)
  | None -> decode r.schema (code_columns r.coded) i

(* ---- extension ---- *)

let extend (r : t) target ~classes ~derived =
  let n = cardinality r in
  if Array.length classes <> n then
    invalid_arg "Relation.extend: one class per row";
  let base =
    Array.of_list
      (List.map (Schema.index_of_opt r.schema) (Schema.names target))
  in
  (* The deltas go straight into code columns: untouched columns are
     shared with [r]'s, written ones copied, new ones start NULL. *)
  let written = Array.make (Array.length base) false in
  Array.iter (List.iter (fun (p, _) -> written.(p) <- true)) derived;
  let source = r.coded in
  let columns =
    Array.mapi
      (fun p -> function
        | Some j when not written.(p) -> Columnar.nth source j
        | Some j -> Array.copy (Columnar.nth source j)
        | None -> Array.make n Intern.null_code)
      base
  in
  for i = 0 to n - 1 do
    List.iter
      (fun (p, code) ->
        let col = columns.(p) in
        if col.(i) <> Intern.null_code then
          invalid_arg
            "Relation.extend: a derived cell overwrites a non-NULL cell";
        col.(i) <- code)
      derived.(classes.(i))
  done;
  (* Set semantics carry over when a key is declared and the target keeps
     every attribute: derived cells only fill NULLs and declared-key cells
     are never NULL, so each row keeps its key values, hence stays
     distinct, and every declared key stays valid. Otherwise the builder
     establishes them. *)
  if r.keys <> [] && List.for_all (Schema.mem target) (Schema.names r.schema)
  then
    {
      schema = target;
      keys = r.keys;
      coded = Columnar.make target n columns;
      rows = None;
    }
  else of_rows target ~keys:r.keys n columns

let keys r = default_keys r.schema r.keys
let declared_keys r = r.keys

let primary_key r =
  match r.keys with key :: _ -> key | [] -> Schema.names r.schema

let is_empty r = cardinality r = 0
let tuples r = Array.to_list (rows r)
let iter f r = Array.iter f (rows r)
let fold f init r = Array.fold_left f init (rows r)
let exists p r = Array.exists p (rows r)
let for_all p r = Array.for_all p (rows r)
let find_opt p r = Array.find_opt p (rows r)

let mem r tuple = exists (Tuple.equal tuple) r

let add r tuple = of_tuples r.schema ~keys:r.keys (tuples r @ [ tuple ])

let value r tuple name = Tuple.get r.schema tuple name

let key_of r tuple = Tuple.project r.schema tuple (primary_key r)

let with_keys r keys = of_tuples r.schema ~keys (tuples r)

(* Both are sets of rows, so equal sizes and every row of [b] among
   [a]'s make them equal. Storage codes split cells as [Value.equal]
   does. *)
let equal a b =
  Schema.equal a.schema b.schema
  && cardinality a = cardinality b
  &&
  let n = cardinality a in
  let ca = code_columns a.coded and cb = code_columns b.coded in
  let held = Code_table.create n in
  for i = 0 to n - 1 do
    ignore (Code_table.find_or_add held ca i)
  done;
  let rec all i = i = n || (Code_table.find held ca cb i >= 0 && all (i + 1)) in
  all 0

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Tuple.pp)
    (tuples r)
