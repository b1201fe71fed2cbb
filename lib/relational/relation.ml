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

let build b =
  let schema = b.b_schema in
  if b.live < Array.length b.sets then
    raise
      (Key_violation
         { key = List.nth b.b_keys b.live; tuple = decode schema b.cols b.witness });
  Option.iter (fun a -> raise (Schema.Unknown_attribute a)) b.missing;
  let n = b.n in
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

(* Rows [0 .. n-1] of [cols] through a builder. *)
let of_rows schema ~keys n cols =
  let b = builder ~rows:n schema ~keys in
  let codes = Array.make (Array.length cols) 0 in
  for i = 0 to n - 1 do
    Array.iteri (fun a col -> codes.(a) <- col.(i)) cols;
    add_codes b codes
  done;
  build b

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

let relation_of_tuples = of_tuples

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

(* ---- append-only keyed relations ---- *)

type relation = t

module Keyed = struct
  (* Keys compare with [Value.compare], which is 0 exactly when
     [Value.equal] holds: the equality storage codes, and so the
     builder's set semantics, use. *)
  module Kmap = Map.Make (struct
    type t = Value.t list

    let compare = List.compare Value.compare
  end)

  type index = {
    key : string list;
    plan : Tuple.plan;
    by_key : Tuple.t Kmap.t;  (** projection on [key] -> the row carrying it *)
  }

  type t = {
    schema : Schema.t;
    keys : string list list;  (** as declared *)
    indexes : index list;  (** one per declared key, or one on the schema *)
    rows : Tuple.t list;  (** reverse insertion order *)
    count : int;
  }

  let empty schema ~keys =
    let index key =
      { key; plan = Tuple.plan schema key; by_key = Kmap.empty }
    in
    let indexed = match keys with [] -> [ Schema.names schema ] | _ -> keys in
    { schema; keys; indexes = List.map index indexed; rows = []; count = 0 }

  let project ix tuple =
    List.init (Tuple.plan_arity ix.plan) (Tuple.nth_with ix.plan tuple)

  (* The first index that finds a NULL or a stored row decides, in
     declaration order. A stored row equal to [tuple] agrees with it on
     every key, so the first index is the one that finds an exact
     duplicate; on a later index a hit is always a different row. *)
  let add t tuple =
    let declared = t.keys <> [] in
    let projections = List.map (fun ix -> project ix tuple) t.indexes in
    let violation ix = Key_violation { key = ix.key; tuple } in
    let rec probe indexes projections =
      match (indexes, projections) with
      | ix :: indexes, k :: projections ->
          if declared && List.exists Value.is_null k then raise (violation ix);
          (match Kmap.find_opt k ix.by_key with
          | None -> probe indexes projections
          | Some row when Tuple.equal row tuple -> false
          | Some _ -> raise (violation ix))
      | _ -> true
    in
    if not (probe t.indexes projections) then None
    else
      Some
        {
          t with
          indexes =
            List.map2
              (fun ix k -> { ix with by_key = Kmap.add k tuple ix.by_key })
              t.indexes projections;
          rows = tuple :: t.rows;
          count = t.count + 1;
        }

  let of_tuples schema ~keys tuples =
    List.fold_left
      (fun t tuple -> Option.value (add t tuple) ~default:t)
      (empty schema ~keys) tuples

  let of_relation (r : relation) =
    of_tuples r.schema ~keys:r.keys (Array.to_list (rows r))

  let schema t = t.schema
  let declared_keys t = t.keys
  let primary_key t = (List.hd t.indexes).key
  let cardinality t = t.count

  let find_key t values =
    let ix = List.hd t.indexes in
    if Array.length values <> Tuple.plan_arity ix.plan then None
    else Kmap.find_opt (Array.to_list values) ix.by_key

  let mem_key t values = Option.is_some (find_key t values)

  let tuples t = List.rev t.rows

  let to_relation t : relation =
    relation_of_tuples t.schema ~keys:t.keys (tuples t)
end
