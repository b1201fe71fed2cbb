module Relation = Relational.Relation
module Schema = Relational.Schema
module Columnar = Relational.Columnar
module Intern = Relational.Intern
module Tuple = Relational.Tuple
module V = Relational.Value

let unmatched_rows partners =
  let rows = ref [] in
  for i = Array.length partners - 1 downto 0 do
    if partners.(i) = 0 then rows := i :: !rows
  done;
  Array.of_list !rows

let unmatched relation partners =
  Array.fold_right
    (fun i acc -> Relation.row relation i :: acc)
    (unmatched_rows partners) []

let unmatched_r (res : Identify.result) =
  unmatched res.r_extended res.r_partners

let unmatched_s (res : Identify.result) =
  unmatched res.s_extended res.s_partners

let rows (res : Identify.result) =
  let ur = unmatched_rows res.r_partners
  and us = unmatched_rows res.s_partners in
  let none a = Array.make (Array.length a) (-1) in
  ( Array.concat [ res.r_rows; ur; none us ],
    Array.concat [ res.s_rows; none ur; us ] )

(* The prototype sorts rows with setof, where null is an ordinary atom:
   cells compare as their printed text, each code's made once. The sort
   is stable, so tied rows keep the order of [rows]. *)
let integrated_table (res : Identify.result) =
  let kext = Extended_key.attributes res.key in
  let rest rel =
    List.filter (fun a -> not (List.mem a kext))
      (Schema.names (Relation.schema rel))
  in
  let r_rest = rest res.r_extended and s_rest = rest res.s_extended in
  (* Column layout: r_<kext>, s_<kext>, r_<rest>, s_<rest>. *)
  let schema =
    Schema.of_names
      (List.map (fun a -> "r_" ^ a) kext
      @ List.map (fun a -> "s_" ^ a) kext
      @ List.map (fun a -> "r_" ^ a) r_rest
      @ List.map (fun a -> "s_" ^ a) s_rest)
  in
  let ri, sj = rows res in
  let side rel index attrs =
    let c = Relation.columnar rel in
    List.map (fun a -> (Columnar.column c a, index)) attrs
  in
  let columns =
    Array.of_list
      (side res.r_extended ri kext
      @ side res.s_extended sj kext
      @ side res.r_extended ri r_rest
      @ side res.s_extended sj s_rest)
  in
  let cell (col, index) t =
    let i = index.(t) in
    if i < 0 then Intern.null_code else col.(i)
  in
  let text = Intern.memo V.to_string in
  let compare t u =
    let rec on k =
      if k = Array.length columns then 0
      else
        let a = cell columns.(k) t and b = cell columns.(k) u in
        let c = if a = b then 0 else String.compare (text a) (text b) in
        if c <> 0 then c else on (k + 1)
    in
    on 0
  in
  let n = Array.length ri in
  let order = Array.init n Fun.id in
  Array.stable_sort compare order;
  Relation.of_columnar
    (Columnar.make schema n
       (Array.map (fun c -> Array.map (cell c) order) columns))

let possibly_same ~key schema t1 t2 =
  let values_of t attr =
    List.filter_map
      (fun col -> Tuple.get_opt schema t col)
      [ "r_" ^ attr; "s_" ^ attr ]
    |> List.filter (fun v -> not (V.is_null v))
  in
  List.for_all
    (fun attr ->
      let v1 = values_of t1 attr and v2 = values_of t2 attr in
      List.for_all
        (fun a -> List.for_all (fun b -> V.eq3 a b = V.True) v2)
        v1)
    (Extended_key.attributes key)
