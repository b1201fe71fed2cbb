module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Value = Relational.Value
module Columnar = Relational.Columnar
module Code_table = Relational.Code_table
module Intern = Relational.Intern

(* One relation's side of the state: its base rows, R′ and the K_Ext
   table over R′, each row of R′ added to the three together. *)
type side = {
  base : Relation.builder;  (** the base rows, with their key tables *)
  keys : string list list;  (** the base's declared keys *)
  ext : Relation.builder;
      (** R′, with the base's declared keys: with none, a row derivation
          made equal to a held one is dropped, as [Relation.extend] does *)
  plan : Ilfd.Fixpoint.plan;
      (** the family compiled for this side's tuples once per state, never
          per insert; rebuilt by [restore] and [add_ilfd], never dumped *)
  kext : int array;  (** K_Ext's positions in R′'s schema *)
  key : int array;  (** the primary key's positions in R′'s schema *)
  key_schema : Schema.t;
  matches : int array array;
      (** per K_Ext attribute, R′'s match codes by row; longer than R′ *)
  table : Code_table.t;
      (** chained, on [matches]: R′'s rows with no NULL on K_Ext *)
}

type t = {
  r : side;
  s : side;
  key : Extended_key.t;
  ilfds : Ilfd.t list;
  mode : Ilfd.Apply.mode;  (** derivation mode, applied to every insert *)
  telemetry : Telemetry.t;  (** sink charged by every insertion *)
  mutable r_rows : int array;
      (** pair [p]'s R′ row, for [p] below [pairs]: derivation order *)
  mutable s_rows : int array;
  mutable pairs : int;
}

(* [a] if it has a slot [i], else a copy twice as long (or [i + 1]). *)
let room a i =
  if i < Array.length a then a
  else
    let wider = Array.make (max (i + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 wider 0 (Array.length a);
    wider

let positions schema attrs = Array.of_list (List.map (Schema.index_of schema) attrs)

let builder_of schema ~keys n cols =
  let b = Relation.builder ~rows:n schema ~keys in
  Relation.add_rows b cols n;
  b

(* A side over the base rows [base] and the R′ rows [ext], code columns
   of [n_base] and [n_ext] rows: the K_Ext table is the one
   [Identify.fold_pairs] builds over S′, rows chained in order. *)
let side ~key ~compiled schema ~keys (n_base, base) target (n_ext, ext) =
  let kext = positions target (Extended_key.attributes key) in
  let primary = match keys with k :: _ -> k | [] -> Schema.names schema in
  let matches = Array.map (fun p -> Array.map Intern.match_code ext.(p)) kext in
  let table = Code_table.create ~chains:true n_ext in
  for i = 0 to n_ext - 1 do
    if not (Columnar.has_null matches i) then
      ignore (Code_table.find_or_add table matches i)
  done;
  {
    base = builder_of schema ~keys n_base base;
    keys;
    ext = builder_of target ~keys n_ext ext;
    plan = Ilfd.Fixpoint.plan ~source:schema ~target compiled;
    kext;
    key = positions target primary;
    key_schema = Schema.project target primary;
    matches;
    table;
  }

let columns rel =
  let c = Relation.columnar rel in
  (Columnar.length c, Array.init (Schema.arity (Relation.schema rel)) (Columnar.nth c))

let create ?(mode = Ilfd.Apply.First_rule) ?(telemetry = Telemetry.off) ~r ~s
    ~key ilfds =
  let res = Identify.matched ~mode ~telemetry ~r ~s ~key ilfds in
  let side base ext =
    side ~key ~compiled:res.compiled (Relation.schema base)
      ~keys:(Relation.declared_keys base) (columns base) (Relation.schema ext)
      (columns ext)
  in
  {
    r = side r res.r_extended;
    s = side s res.s_extended;
    key;
    ilfds;
    mode;
    telemetry;
    r_rows = res.r_rows;
    s_rows = res.s_rows;
    pairs = Array.length res.r_rows;
  }

(* Row [i] of R′'s primary key, decoded. *)
let key_of side i =
  Tuple.of_array side.key_schema
    (Array.map (fun p -> Intern.value (Relation.kept_code side.ext i p)) side.key)

let entry t p =
  { Matching_table.r_key = key_of t.r t.r_rows.(p); s_key = key_of t.s t.s_rows.(p) }

let entries t = List.init t.pairs (entry t)

let matching_table t =
  let gather side rows =
    Array.map
      (fun a -> Array.init t.pairs (fun p -> Relation.kept_code side.ext rows.(p) a))
      side.key
  in
  Matching_table.of_codes
    ~r_key_attrs:(Schema.names t.r.key_schema)
    ~s_key_attrs:(Schema.names t.s.key_schema)
    (Array.append (gather t.r t.r_rows) (gather t.s t.s_rows))

let derive t plan tuple =
  match
    Ilfd.Fixpoint.extend_tuple ~mode:t.mode ~telemetry:t.telemetry plan tuple
  with
  | Ok (extended, _) -> extended
  | Error conflict ->
      (* Only reachable in Check_conflicts mode; surface the witness the
         same way the batch pipeline does. *)
      raise (Ilfd.Apply.Conflict_found conflict)

(* One insertion's worth of accounting; shared by both sides. *)
let count_insert t ~probe_null ~pairs_added =
  Telemetry.incr t.telemetry "incremental.inserts";
  Telemetry.add t.telemetry "incremental.pairs_added" pairs_added;
  if probe_null then Telemetry.incr t.telemetry "incremental.null_key"

let add_pair t i j =
  let p = t.pairs in
  t.r_rows <- room t.r_rows p;
  t.s_rows <- room t.s_rows p;
  t.r_rows.(p) <- i;
  t.s_rows.(p) <- j;
  t.pairs <- p + 1

(* The keys are checked before the extension, so a row that both breaks
   a key and has disagreeing derivations reports the key violation, and
   nothing is added before the extension has succeeded: an insert that
   raises leaves the state as it was. Then the row goes into the base,
   its extension into R′, and, with no NULL on K_Ext, the extension
   probes the other side's table, whose chain lists its partners in
   their insertion order, and joins its own. [pair i j] orders a new
   pair's rows as R′ then S′. *)
let insert t side other ~pair tuple =
  Telemetry.span t.telemetry "incremental.insert" @@ fun () ->
  if not (Relation.check side.base tuple) then []
  else begin
    let extended = derive t side.plan tuple in
    ignore (Relation.append side.base tuple);
    let i = Relation.kept side.ext in
    Relation.add_codes side.ext
      (Array.init (Tuple.arity extended) (fun a ->
           Intern.code (Tuple.nth extended a)));
    if Relation.kept side.ext = i then begin
      count_insert t ~probe_null:false ~pairs_added:0;
      []
    end
    else begin
      Array.iteri
        (fun k p ->
          let col = room side.matches.(k) i in
          col.(i) <- Intern.match_code (Relation.kept_code side.ext i p);
          side.matches.(k) <- col)
        side.kext;
      let probe_null = Columnar.has_null side.matches i in
      let rec partners j acc =
        if j < 0 then List.rev acc
        else partners (Code_table.next other.table j) (j :: acc)
      in
      let found =
        if probe_null then []
        else begin
          let first = Code_table.find other.table other.matches side.matches i in
          ignore (Code_table.find_or_add side.table side.matches i);
          partners first []
        end
      in
      count_insert t ~probe_null ~pairs_added:(List.length found);
      List.map
        (fun j ->
          pair i j;
          entry t (t.pairs - 1))
        found
    end
  end

let insert_r t tuple = insert t t.r t.s ~pair:(add_pair t) tuple
let insert_s t tuple = insert t t.s t.r ~pair:(fun s r -> add_pair t r s) tuple

let r t = Relation.build t.r.base
let s t = Relation.build t.s.base

(* A knowledge update recomputes wholesale. *)
let add_ilfd t ilfd =
  create ~mode:t.mode ~telemetry:t.telemetry ~r:(r t) ~s:(s t) ~key:t.key
    (t.ilfds @ [ ilfd ])

let explain t (entry : Matching_table.entry) =
  match
    ( Relation.find_key t.r.base (Tuple.to_array entry.r_key),
      Relation.find_key t.s.base (Tuple.to_array entry.s_key) )
  with
  | Some i, Some j ->
      Some
        (Explain.of_rows ~mode:t.mode ~key:t.key ~r_plan:t.r.plan
           ~s_plan:t.s.plan entry
           (Relation.kept_row t.r.base i)
           (Relation.kept_row t.s.base j))
  | _ -> None

let r_base t = t.r.base
let s_base t = t.s.base
let ilfds t = t.ilfds

(* R′'s rows with a NULL on K_Ext, in insertion order: the rows the
   K_Ext table does not hold. *)
let null_keyed side =
  List.filter_map
    (fun i ->
      if Columnar.has_null side.matches i then Some (Relation.kept_row side.ext i)
      else None)
    (List.init (Relation.kept side.ext) Fun.id)

let unmatched_r t = null_keyed t.r
let unmatched_s t = null_keyed t.s

let violations t = Matching_table.uniqueness_violations (matching_table t)

let outcome t =
  let mt = matching_table t in
  {
    Identify.r_extended = Relation.build t.r.ext;
    s_extended = Relation.build t.s.ext;
    matching_table = mt;
    violations = Matching_table.uniqueness_violations mt;
    pairs =
      List.init t.pairs (fun p ->
          ( Relation.kept_row t.r.ext t.r_rows.(p),
            Relation.kept_row t.s.ext t.s_rows.(p) ));
    unmatched_r = unmatched_r t;
    unmatched_s = unmatched_s t;
  }

(* ---- snapshot state ----

   The dump is the state without anything bound to this process: no
   code, no table, no plan, no sink. Each distinct value the code
   columns hold is stored once, and each column as indices into that
   table, so [restore] interns each value once and maps the columns
   through the codes it got, in any process, whatever codes it has
   handed out already. The pairs are row indices. *)

type side_dump = {
  d_schema : Schema.t;
  d_keys : string list list;
  d_base : int * int array array;  (** rows, then columns of indices *)
  d_target : Schema.t;
  d_ext : int * int array array;
}

type dump = {
  d_key : Extended_key.t;
  d_mode : Ilfd.Apply.mode;
  d_values : Value.t array;
  d_r : side_dump;
  d_s : side_dump;
  d_r_rows : int array;
  d_s_rows : int array;
}

let dump t =
  let index = Array.make (Intern.size ()) (-1) and values = ref [] in
  let next = ref 0 in
  let encode c =
    if index.(c) < 0 then begin
      index.(c) <- !next;
      values := Intern.value c :: !values;
      incr next
    end;
    index.(c)
  in
  let cols b =
    let n = Relation.kept b in
    ( n,
      Array.init
        (Schema.arity (Relation.builder_schema b))
        (fun a -> Array.init n (fun i -> encode (Relation.kept_code b i a))) )
  in
  let side s =
    let d_base = cols s.base in
    {
      d_schema = Relation.builder_schema s.base;
      d_keys = s.keys;
      d_base;
      d_target = Relation.builder_schema s.ext;
      d_ext = cols s.ext;
    }
  in
  let d_r = side t.r in
  let d_s = side t.s in
  {
    d_key = t.key;
    d_mode = t.mode;
    d_values = Array.of_list (List.rev !values);
    d_r;
    d_s;
    d_r_rows = Array.sub t.r_rows 0 t.pairs;
    d_s_rows = Array.sub t.s_rows 0 t.pairs;
  }

let restore ?(telemetry = Telemetry.off) ~ilfds d =
  let codes = Array.map Intern.code d.d_values in
  let decode (n, cols) = (n, Array.map (Array.map (Array.get codes)) cols) in
  let compiled = Ilfd.Apply.compile ilfds in
  let side s =
    side ~key:d.d_key ~compiled s.d_schema ~keys:s.d_keys (decode s.d_base)
      s.d_target (decode s.d_ext)
  in
  {
    r = side d.d_r;
    s = side d.d_s;
    key = d.d_key;
    ilfds;
    mode = d.d_mode;
    telemetry;
    r_rows = Array.copy d.d_r_rows;
    s_rows = Array.copy d.d_s_rows;
    pairs = Array.length d.d_r_rows;
  }
