type t = {
  schema : Schema.t;
  keys : string list list;
  n : int;  (** rows *)
  (* The rows as tuples and their column-major code view. At least one is
     set; the other is built from it on first use and cached. Each is a
     pure function of the other, so a racing double computation is
     benign (both results are equal). The coded constructors ([build],
     [extend]) set only the codes. *)
  mutable rows : Tuple.t array option;
  mutable coded : Columnar.t option;
}

exception Key_violation of { key : string list; tuple : Tuple.t }

module Tset = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let check_key schema key rows =
  let seen = Hashtbl.create 64 in
  let rec loop = function
    | [] -> Ok ()
    | row :: rest ->
        let proj = Tuple.project schema row key in
        if Tuple.has_null proj then Error row
        else
          let k = Tuple.values proj in
          if Hashtbl.mem seen k then Error row
          else begin
            Hashtbl.add seen k ();
            loop rest
          end
  in
  loop rows

let default_keys schema keys =
  match keys with [] -> [ Schema.names schema ] | _ :: _ -> keys

let validate_keys schema keys rows =
  List.iter
    (fun key ->
      List.iter (fun a -> ignore (Schema.index_of schema a)) key;
      match check_key schema key rows with
      | Ok () -> ()
      | Error tuple -> raise (Key_violation { key; tuple }))
    keys

let of_tuples schema ?(keys = []) tuple_list =
  (* Set semantics: collapse exact duplicates, preserving first-seen order. *)
  let _, distinct =
    List.fold_left
      (fun (seen, acc) row ->
        if Tset.mem row seen then (seen, acc)
        else (Tset.add row seen, row :: acc))
      (Tset.empty, []) tuple_list
  in
  let distinct = List.rev distinct in
  validate_keys schema keys distinct;
  let rows = Array.of_list distinct in
  { schema; keys; n = Array.length rows; rows = Some rows; coded = None }

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

let typed schema =
  List.exists (fun (a : Schema.attribute) -> a.ty <> None)
    (Schema.attributes schema)

let code_columns schema c = Array.init (Schema.arity schema) (Columnar.nth c)

let rows (r : t) =
  match (r.rows, r.coded) with
  | Some rows, _ -> rows
  | None, Some c ->
      let rows = Array.init r.n (decode r.schema (code_columns r.schema c)) in
      r.rows <- Some rows;
      rows
  | None, None -> assert false

let row (r : t) i =
  if i < 0 || i >= r.n then invalid_arg "Relation.row: no such row";
  match (r.rows, r.coded) with
  | Some rows, _ -> rows.(i)
  | None, Some c -> decode r.schema (code_columns r.schema c) i
  | None, None -> assert false

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
  let r =
    {
      schema;
      keys = b.b_keys;
      n;
      rows = None;
      coded = Some (Columnar.make schema n cols);
    }
  in
  (* A typed schema's rows are checked against its types now, as a
     decode would check them. *)
  if typed schema then ignore (rows r);
  r

let of_columnar c =
  let n = Columnar.length c and schema = Columnar.schema c in
  let cols = Array.init (Schema.arity schema) (Columnar.nth c) in
  let b = builder ~rows:n schema ~keys:[] in
  let codes = Array.make (Array.length cols) 0 in
  for i = 0 to n - 1 do
    Array.iteri (fun a col -> codes.(a) <- col.(i)) cols;
    add_codes b codes
  done;
  build b

let create schema ?(keys = []) value_rows =
  of_tuples schema ~keys (List.map (Tuple.make schema) value_rows)

let empty schema ?(keys = []) () = of_tuples schema ~keys []

let schema r = r.schema

let columnar r =
  match r.coded with
  | Some c -> c
  | None ->
      let c = Columnar.encode r.schema (rows r) in
      r.coded <- Some c;
      c

(* ---- extension ---- *)

let extend (r : t) target ~classes ~derived =
  let n = r.n in
  if Array.length classes <> n then
    invalid_arg "Relation.extend: one class per row";
  let base =
    Array.of_list
      (List.map
         (fun (a : Schema.attribute) -> Schema.index_of_opt r.schema a.name)
         (Schema.attributes target))
  in
  let overwrite () =
    invalid_arg "Relation.extend: a derived cell overwrites a non-NULL cell"
  in
  (* Set semantics carry over when a key is declared and the target keeps
     every attribute: derived cells only fill NULLs and declared-key cells
     are never NULL, so each row keeps its key values, hence stays
     distinct, and every declared key stays valid. *)
  let inherits =
    r.keys <> [] && List.for_all (Schema.mem target) (Schema.names r.schema)
  in
  if inherits then begin
    (* The deltas go straight into code columns: untouched columns are
       shared with [r]'s, written ones copied, new ones start NULL. No
       tuple is built, unless a typed target asks for its check. *)
    let written = Array.make (Array.length base) false in
    Array.iter (List.iter (fun (p, _) -> written.(p) <- true)) derived;
    let source = columnar r in
    let columns =
      Array.mapi
        (fun p -> function
          | Some j when not written.(p) -> Columnar.nth source j
          | Some j -> Array.copy (Columnar.nth source j)
          | None -> Array.make n Intern.null_code)
        base
    in
    let check = typed target in
    for i = 0 to n - 1 do
      List.iter
        (fun (p, code) ->
          let col = columns.(p) in
          if col.(i) <> Intern.null_code then overwrite ();
          col.(i) <- code)
        derived.(classes.(i));
      if check then ignore (decode target columns i)
    done;
    {
      schema = target;
      keys = r.keys;
      n;
      rows = None;
      coded = Some (Columnar.make target n columns);
    }
  end
  else
    let materialise i =
      let t = row r i in
      let cells =
        Array.map (function Some j -> Tuple.nth t j | None -> Value.Null) base
      in
      List.iter
        (fun (p, code) ->
          if not (Value.is_null cells.(p)) then overwrite ();
          cells.(p) <- Intern.value code)
        derived.(classes.(i));
      Tuple.of_array target cells
    in
    of_tuples target ~keys:r.keys (List.init n materialise)

let keys r = default_keys r.schema r.keys
let declared_keys r = r.keys

let primary_key r =
  match r.keys with key :: _ -> key | [] -> Schema.names r.schema

let cardinality (r : t) = r.n
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

let equal a b =
  Schema.equal a.schema b.schema
  && cardinality a = cardinality b
  && Tset.equal (Tset.of_list (tuples a)) (Tset.of_list (tuples b))

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Tuple.pp)
    (tuples r)

(* ---- append-only keyed relations ---- *)

type relation = t

module Keyed = struct
  (* Keys compare with [Value.compare], which is 0 exactly when
     [Value.equal] holds: the equality [check_key] and set
     semantics use. *)
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
  (* [add] kept these rows distinct and key-valid: hand them over as they
     are. *)
  let to_relation t : relation =
    {
      schema = t.schema;
      keys = t.keys;
      n = t.count;
      rows = Some (Array.of_list (tuples t));
      coded = None;
    }
end
