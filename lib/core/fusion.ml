module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Columnar = Relational.Columnar
module Intern = Relational.Intern
module V = Relational.Value

type policy =
  | Prefer_left
  | Prefer_right
  | Prefer_non_null
  | Resolve of (V.t -> V.t -> V.t)

exception Inconsistent of {
  attribute : string;
  left : V.t;
  right : V.t;
}

let union_schema rs ss =
  let r_names = Schema.names rs in
  let extra = List.filter (fun a -> not (List.mem a r_names)) (Schema.names ss) in
  Schema.of_names (r_names @ extra)

let column rel attribute =
  if Schema.mem (Relation.schema rel) attribute then
    Some (Columnar.column (Relation.columnar rel) attribute)
  else None

(* A side's code in [col] at row [i], NULL when the side has no such
   attribute or no row. *)
let code col i =
  match col with
  | Some col when i >= 0 -> col.(i)
  | _ -> Intern.null_code

(* Two non-NULL codes are [eq3]-equal exactly when their match codes
   are. *)
let resolve policy attribute left right =
  if left = Intern.null_code then right
  else if right = Intern.null_code then left
  else if Intern.match_code left = Intern.match_code right then left
  else
    match policy with
    | Prefer_left -> left
    | Prefer_right -> right
    | Prefer_non_null ->
        let left = Intern.value left and right = Intern.value right in
        raise (Inconsistent { attribute; left; right })
    | Resolve f -> Intern.code (f (Intern.value left) (Intern.value right))

let compare_rows columns t u =
  let rec on k =
    if k = Array.length columns then 0
    else
      let c = Intern.compare_codes columns.(k).(t) columns.(k).(u) in
      if c <> 0 then c else on (k + 1)
  in
  on 0

(* One row per T_RS row ({!Integrate.rows}), resolved cell by cell in
   row order, so the first conflict raised is the first pair's first
   attribute in conflict; then sorted on every column in schema order
   ([Value.compare]), and an exact duplicate dropped. *)
let fuse ?(default = Prefer_non_null) ?(overrides = [])
    (res : Identify.result) =
  let out =
    union_schema
      (Relation.schema res.r_extended)
      (Relation.schema res.s_extended)
  in
  let attrs =
    Array.of_list
      (List.map
         (fun a ->
           ( a,
             Option.value (List.assoc_opt a overrides) ~default,
             column res.r_extended a,
             column res.s_extended a ))
         (Schema.names out))
  in
  let ri, sj = Integrate.rows res in
  let n = Array.length ri in
  let columns = Array.map (fun _ -> Array.make n Intern.null_code) attrs in
  for t = 0 to n - 1 do
    Array.iteri
      (fun k (a, policy, r_col, s_col) ->
        columns.(k).(t) <-
          resolve policy a (code r_col ri.(t)) (code s_col sj.(t)))
      attrs
  done;
  let order = Array.init n Fun.id in
  Array.sort (compare_rows columns) order;
  Relation.of_columnar
    (Columnar.make out n
       (Array.map (fun col -> Array.map (fun t -> col.(t)) order) columns))

let conflicts (res : Identify.result) =
  let shared =
    List.map
      (fun a -> (a, column res.r_extended a, column res.s_extended a))
      (Schema.common
         (Relation.schema res.r_extended)
         (Relation.schema res.s_extended))
  in
  let plan =
    Tuple.plan
      (Relation.schema res.r_extended)
      (Relation.primary_key res.r_extended)
  in
  let found = ref [] in
  Array.iteri
    (fun p i ->
      let j = res.s_rows.(p) in
      List.iter
        (fun (a, r_col, s_col) ->
          let left = code r_col i and right = code s_col j in
          if
            left <> Intern.null_code
            && right <> Intern.null_code
            && Intern.match_code left <> Intern.match_code right
          then
            found :=
              ( a,
                Intern.value left,
                Intern.value right,
                Tuple.project_with plan (Relation.row res.r_extended i) )
              :: !found)
        shared)
    res.r_rows;
  List.rev !found
