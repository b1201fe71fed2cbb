module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Columnar = Relational.Columnar
module Code_table = Relational.Code_table
module Intern = Relational.Intern

type entry = { r_key : Tuple.t; s_key : Tuple.t }

type t = {
  r_key_attrs : string list;
  s_key_attrs : string list;
  rows : Relation.t;  (** entry [i] is row [i], over [r_<key>… s_<key>…] *)
  mutable index : Code_table.t option;  (** every row, once [mem] asks *)
}

type violation =
  | R_tuple_matched_twice of { r_key : Tuple.t; s_keys : Tuple.t list }
  | S_tuple_matched_twice of { s_key : Tuple.t; r_keys : Tuple.t list }

let schema ~r_key_attrs ~s_key_attrs =
  Schema.of_names
    (List.map (( ^ ) "r_") r_key_attrs @ List.map (( ^ ) "s_") s_key_attrs)

let columns rows =
  Array.init
    (Schema.arity (Relation.schema rows))
    (Columnar.nth (Relation.columnar rows))

(* The one constructor: every table is a coded relation of distinct
   rows. *)
let of_rows ~r_key_attrs ~s_key_attrs rows =
  { r_key_attrs; s_key_attrs; rows; index = None }

let make ~r_key_attrs ~s_key_attrs entries =
  let width attrs key =
    let expected = List.length attrs and got = Tuple.arity key in
    if got <> expected then raise (Tuple.Arity_mismatch { expected; got })
  in
  of_rows ~r_key_attrs ~s_key_attrs
    (Relation.of_tuples (schema ~r_key_attrs ~s_key_attrs)
       (List.map
          (fun e ->
            width r_key_attrs e.r_key;
            width s_key_attrs e.s_key;
            Tuple.concat e.r_key e.s_key)
          entries))

let of_codes ~r_key_attrs ~s_key_attrs cols =
  let n = if cols = [||] then 0 else Array.length cols.(0) in
  of_rows ~r_key_attrs ~s_key_attrs
    (Relation.of_columnar
       (Columnar.make (schema ~r_key_attrs ~s_key_attrs) n cols))

let of_relation ~r_key_attrs ~s_key_attrs rel =
  of_codes ~r_key_attrs ~s_key_attrs
    (Columnar.columns (Relation.columnar rel)
       (Schema.names (schema ~r_key_attrs ~s_key_attrs)))

let r_key_attrs t = t.r_key_attrs
let s_key_attrs t = t.s_key_attrs
let cardinality t = Relation.cardinality t.rows

let key_codes t =
  let cols = columns t.rows and nr = List.length t.r_key_attrs in
  (Array.sub cols 0 nr, Array.sub cols nr (Array.length cols - nr))

(* A row split into its entry. [make]'s rows are the tuples it was
   given (the relation keeps them), so their values are as given; a
   coded table's are decoded. *)
let split t =
  let plan prefix attrs =
    Tuple.plan (Relation.schema t.rows) (List.map (( ^ ) prefix) attrs)
  in
  let r = plan "r_" t.r_key_attrs and s = plan "s_" t.s_key_attrs in
  fun row ->
    { r_key = Tuple.project_with r row; s_key = Tuple.project_with s row }

let entries t = List.map (split t) (Relation.tuples t.rows)

(* Rows [0 .. n-1] of [cols] in one code table, which holds the first
   of each group of equal rows. *)
let held cols n =
  let table = Code_table.create n in
  for i = 0 to n - 1 do
    ignore (Code_table.find_or_add table cols i)
  done;
  table

let mem t e =
  let index =
    match t.index with
    | Some index -> index
    | None ->
        let index = held (columns t.rows) (cardinality t) in
        t.index <- Some index;
        index
  in
  let code v =
    match Intern.find v with Some c -> [| c |] | None -> raise Not_found
  in
  List.compare_length_with t.r_key_attrs (Tuple.arity e.r_key) = 0
  && List.compare_length_with t.s_key_attrs (Tuple.arity e.s_key) = 0
  &&
  match Array.map code (Tuple.to_array (Tuple.concat e.r_key e.s_key)) with
  | probe -> Code_table.find index (columns t.rows) probe 0 >= 0
  | exception Not_found -> false

let add t entry =
  if mem t entry then t
  else
    make ~r_key_attrs:t.r_key_attrs ~s_key_attrs:t.s_key_attrs
      (entries t @ [ entry ])

(* The rows grouped on the key columns [cols]: every group of two or
   more, in the order the groups first appear, each listing its rows in
   entry order. On a sound side, where no key repeats, one code table
   shows it and nothing is grouped. *)
let shared cols n =
  if Code_table.size (held cols n) = n then []
  else begin
    let class_of, firsts = Code_table.classes cols n in
    let members = Array.make (Array.length firsts) [] in
    for i = n - 1 downto 0 do
      members.(class_of.(i)) <- i :: members.(class_of.(i))
    done;
    List.filter (function _ :: _ :: _ -> true | _ -> false)
      (Array.to_list members)
  end

let uniqueness_violations t =
  let r_cols, s_cols = key_codes t and n = cardinality t in
  let entry = let split = split t in fun i -> split (Relation.row t.rows i) in
  (* Each group as its first entry and all of them. *)
  let side cols violation =
    List.map
      (fun rows -> violation (entry (List.hd rows)) (List.map entry rows))
      (shared cols n)
  in
  side r_cols (fun first group ->
      R_tuple_matched_twice
        { r_key = first.r_key; s_keys = List.map (fun e -> e.s_key) group })
  @ side s_cols (fun first group ->
        S_tuple_matched_twice
          { s_key = first.s_key; r_keys = List.map (fun e -> e.r_key) group })

let satisfies_uniqueness t = uniqueness_violations t = []
let consistent mt nmt = not (List.exists (mem nmt) (entries mt))

(* Row against row on their codes, column by column: [Tuple.compare] on
   the decoded rows, which are distinct, so the order is total. *)
let to_relation t =
  let cols = columns t.rows in
  let rec compare k i j =
    if k = Array.length cols then 0
    else
      let c = Intern.compare_codes cols.(k).(i) cols.(k).(j) in
      if c <> 0 then c else compare (k + 1) i j
  in
  let order = Array.init (cardinality t) Fun.id in
  Array.sort (compare 0) order;
  Relation.of_columnar
    (Columnar.make (Relation.schema t.rows) (Array.length order)
       (Array.map (fun col -> Array.map (Array.get col) order) cols))

let pp ppf t = Relation.pp ppf (to_relation t)

let pp_violation ppf v =
  let side, key, other, partners =
    match v with
    | R_tuple_matched_twice { r_key; s_keys } -> ("R", r_key, "S", s_keys)
    | S_tuple_matched_twice { s_key; r_keys } -> ("S", s_key, "R", r_keys)
  in
  Format.fprintf ppf "%s-tuple %a matched to %d %s-tuples (%a)" side Tuple.pp
    key (List.length partners) other
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Tuple.pp)
    partners
