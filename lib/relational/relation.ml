type t = {
  schema : Schema.t;
  keys : string list list;
  rows : Tuple.t array;
  (* The column-major code view: set by [build] and [extend], which have
     the codes at hand, otherwise built on first use. A pure function of
     [rows], so a racing double computation is benign (both results are
     equal). *)
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
  { schema; keys; rows = Array.of_list distinct; coded = None }

(* ---- coded construction ---- *)

(* Row indices of a growing code store, hashed and compared on their
   codes in the columns [on]: open addressing over an int array, where a
   slot holds [i + 1] for row [i] and [0] when free. The columns are
   passed to each probe, so the store may reallocate them as it grows.
   The probes loop rather than take closures: a closure per row and key
   tripled the builder's allocation and cost it a third more time. *)
type row_set = {
  on : int array;
  mutable slots : int array;  (** a power of two long, at most half full *)
  mutable size : int;
}

let hash_on cols on i =
  let h = ref 0 in
  for k = 0 to Array.length on - 1 do
    h := (!h * 31) + cols.(on.(k)).(i)
  done;
  Hashtbl.hash !h

let equal_on cols on i j =
  let k = ref 0 and n = Array.length on in
  while
    !k < n
    &&
    let col = cols.(on.(!k)) in
    col.(i) = col.(j)
  do
    incr k
  done;
  !k = n

let null_on cols on i =
  let k = ref 0 and n = Array.length on in
  while !k < n && cols.(on.(!k)).(i) <> Intern.null_code do
    incr k
  done;
  !k < n

(* The slot of the row equal to row [i] on [set.on], or the free slot
   where row [i] would go. *)
let slot set cols i =
  let mask = Array.length set.slots - 1 in
  let p = ref (hash_on cols set.on i land mask) in
  while
    let s = set.slots.(!p) in
    s <> 0 && not (equal_on cols set.on (s - 1) i)
  do
    p := (!p + 1) land mask
  done;
  !p

(* The kept row equal to row [i] on [set.on], or [-1]. *)
let find set cols i = set.slots.(slot set cols i) - 1

let add set cols i =
  set.slots.(slot set cols i) <- i + 1;
  set.size <- set.size + 1;
  if 2 * set.size > Array.length set.slots then begin
    let old = set.slots in
    set.slots <- Array.make (2 * Array.length old) 0;
    Array.iter
      (fun s -> if s <> 0 then set.slots.(slot set cols (s - 1)) <- s)
      old
  end

type builder = {
  b_schema : Schema.t;
  b_keys : string list list;
  mutable cols : int array array;  (** cols.(attr).(row), [capacity] rows *)
  mutable capacity : int;
  mutable n : int;  (** rows kept *)
  declared : bool;
  sets : row_set array;
      (** one per checked key (the declared keys before the first that
          names a missing attribute), or one over every column when no
          key is declared *)
  missing : string option;  (** that first missing attribute *)
  mutable live : int;
      (** the sets that can still decide the outcome: all of them until
          a row breaks a key [k], then those before [k] *)
  mutable witness : int;  (** the first row that broke key [live] *)
}

let builder schema ~keys =
  let arity = Schema.arity schema in
  let capacity = 16 in
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
  let sets =
    Array.of_list
      (List.map (fun on -> { on; slots = Array.make 64 0; size = 0 }) on)
  in
  {
    b_schema = schema;
    b_keys = keys;
    cols = Array.init arity (fun _ -> Array.make capacity 0);
    capacity;
    n = 0;
    declared = keys <> [];
    sets;
    missing;
    live = Array.length sets;
    witness = -1;
  }

let grow b =
  let capacity = 2 * b.capacity in
  b.cols <-
    Array.map
      (fun col ->
        let wider = Array.make capacity 0 in
        Array.blit col 0 wider 0 b.n;
        wider)
      b.cols;
  b.capacity <- capacity

let break b k i =
  b.live <- k;
  b.witness <- i

(* The candidate row goes into slot [n] and is probed there: kept, it
   stays; an exact duplicate is overwritten by the next row. With a
   declared key, key 0's set also finds exact duplicates — equal rows
   agree on every key, and rows kept so far carry no NULL on key 0 — so
   no set over the whole row is needed. *)
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
    let first = b.sets.(0) in
    if b.declared && null_on cols first.on i then break b 0 i
    else
      let j = find first cols i in
      if j >= 0 then begin
        if b.declared && not (Array.for_all (fun col -> col.(i) = col.(j)) cols)
        then break b 0 i
      end
      else begin
        let k = ref 1 in
        while !k < b.live do
          let set = b.sets.(!k) in
          if null_on cols set.on i || find set cols i >= 0 then break b !k i
          else incr k
        done;
        for k = 0 to b.live - 1 do
          add b.sets.(k) cols i
        done;
        b.n <- i + 1
      end
  end

let build b =
  let schema = b.b_schema in
  let arity = Schema.arity schema in
  let decode cols i =
    Tuple.of_array schema
      (Array.init arity (fun a -> Intern.value cols.(a).(i)))
  in
  if b.live < Array.length b.sets then
    raise
      (Key_violation
         { key = List.nth b.b_keys b.live; tuple = decode b.cols b.witness });
  Option.iter (fun a -> raise (Schema.Unknown_attribute a)) b.missing;
  let n = b.n in
  let cols = Array.map (fun col -> Array.sub col 0 n) b.cols in
  {
    schema;
    keys = b.b_keys;
    rows = Array.init n (decode cols);
    coded = Some (Columnar.make schema n cols);
  }

let create schema ?(keys = []) value_rows =
  of_tuples schema ~keys (List.map (Tuple.make schema) value_rows)

let empty schema ?(keys = []) () = of_tuples schema ~keys []

let schema r = r.schema

let columnar r =
  match r.coded with
  | Some c -> c
  | None ->
      let c = Columnar.encode r.schema r.rows in
      r.coded <- Some c;
      c

(* ---- extension ---- *)

let extend r target ~classes ~derived =
  let n = Array.length r.rows in
  if Array.length classes <> n then
    invalid_arg "Relation.extend: one class per row";
  let base =
    Array.of_list
      (List.map
         (fun (a : Schema.attribute) -> Schema.index_of_opt r.schema a.name)
         (Schema.attributes target))
  in
  (* Set semantics carry over when a key is declared and the target keeps
     every attribute: derived cells only fill NULLs and declared-key cells
     are never NULL, so each row keeps its key values, hence stays
     distinct, and every declared key stays valid. *)
  let inherits =
    r.keys <> [] && List.for_all (Schema.mem target) (Schema.names r.schema)
  in
  let columns =
    if not inherits then [||]
    else begin
      let written = Array.make (Array.length base) false in
      Array.iter (List.iter (fun (p, _) -> written.(p) <- true)) derived;
      let source = columnar r in
      Array.mapi
        (fun p -> function
          | Some j when not written.(p) -> Columnar.nth source j
          | Some j -> Array.copy (Columnar.nth source j)
          | None -> Array.make n Intern.null_code)
        base
    end
  in
  let materialise i =
    let t = r.rows.(i) in
    let cells =
      Array.map (function Some j -> Tuple.nth t j | None -> Value.Null) base
    in
    List.iter
      (fun (p, code) ->
        if not (Value.is_null cells.(p)) then
          invalid_arg
            "Relation.extend: a derived cell overwrites a non-NULL cell";
        cells.(p) <- Intern.value code;
        if inherits then columns.(p).(i) <- code)
      derived.(classes.(i));
    Tuple.of_array target cells
  in
  let rows = Array.init n materialise in
  if inherits then
    {
      schema = target;
      keys = r.keys;
      rows;
      coded = Some (Columnar.make target n columns);
    }
  else of_tuples target ~keys:r.keys (Array.to_list rows)

let keys r = default_keys r.schema r.keys
let declared_keys r = r.keys

let primary_key r =
  match r.keys with key :: _ -> key | [] -> Schema.names r.schema

let cardinality r = Array.length r.rows
let is_empty r = cardinality r = 0
let tuples r = Array.to_list r.rows
let iter f r = Array.iter f r.rows
let fold f init r = Array.fold_left f init r.rows
let exists p r = Array.exists p r.rows
let for_all p r = Array.for_all p r.rows

let find_opt p r =
  let n = Array.length r.rows in
  let rec loop i =
    if i = n then None
    else if p r.rows.(i) then Some r.rows.(i)
    else loop (i + 1)
  in
  loop 0

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
    of_tuples r.schema ~keys:r.keys (Array.to_list r.rows)

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
      rows = Array.of_list (tuples t);
      coded = None;
    }
end
