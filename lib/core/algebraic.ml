module A = Relational.Algebra
module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple

type plan = {
  r_tables : Ilfd.Table.t list;
  s_tables : Ilfd.Table.t list;
  r_prime : Relational.Relation.t;
  s_prime : Relational.Relation.t;
  matching_relation : Relational.Relation.t;
}

let usable_tables schema missing tables =
  List.filter
    (fun (t : Ilfd.Table.t) ->
      List.mem t.output missing
      && List.for_all (Schema.mem schema) t.inputs)
    tables

(* π_{key ∪ {y}} (rel ⋈ IM) for every usable table deriving y, unioned. *)
let derivations rel key y tables =
  let for_table (t : Ilfd.Table.t) =
    A.project (key @ [ y ]) (A.natural_join rel (Ilfd.Table.to_relation t))
  in
  match List.filter (fun (t : Ilfd.Table.t) -> t.output = y) tables with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun acc t -> A.union acc (for_table t))
           (for_table first) rest)

(* rel ⟕_{key} r_y, merging on the key columns (renamed on the right to
   keep schemas disjoint, then projected away). *)
let left_extend rel key y r_y =
  let fresh k = "__k_" ^ k in
  let renamed = A.rename (List.map (fun k -> (k, fresh k)) key) r_y in
  let joined =
    A.left_outer_join ~on:(List.map (fun k -> (k, fresh k)) key) rel renamed
  in
  A.project (Schema.names (Relation.schema rel) @ [ y ]) joined

let extend rel key kext tables =
  let schema = Relation.schema rel in
  let missing = List.filter (fun a -> not (Schema.mem schema a)) kext in
  let extended =
    List.fold_left
      (fun acc y ->
        match derivations rel key y tables with
        | Some r_y -> left_extend acc key y r_y
        | None ->
            (* No table derives y: the column is all NULL, as in the
               prototype's default facts. *)
            let wide = Schema.concat (Relation.schema acc) (Schema.of_names [ y ]) in
            Relation.of_tuples wide
              ~keys:(Relation.declared_keys acc)
              (List.map
                 (fun t -> Tuple.of_array wide
                      (Array.append (Tuple.to_array t) [| Relational.Value.Null |]))
                 (Relation.tuples acc)))
      rel missing
  in
  extended

let run ~r ~s ~key ilfds =
  let saturated = Ilfd.Theory.saturate ilfds in
  let kext = Extended_key.attributes key in
  let all_tables = Ilfd.Table.of_ilfds saturated in
  let missing_of rel =
    List.filter
      (fun a -> not (Schema.mem (Relation.schema rel) a))
      kext
  in
  let r_tables = usable_tables (Relation.schema r) (missing_of r) all_tables in
  let s_tables = usable_tables (Relation.schema s) (missing_of s) all_tables in
  let r_key = Relation.primary_key r and s_key = Relation.primary_key s in
  let r_prime = extend r r_key kext r_tables in
  let s_prime = extend s s_key kext s_tables in
  let pr = A.prefix "r_" r_prime and ps = A.prefix "s_" s_prime in
  let joined =
    A.equi_join
      ~on:(List.map (fun a -> ("r_" ^ a, "s_" ^ a)) kext)
      pr ps
  in
  let matching_relation =
    A.sort_by
      (List.map (fun a -> "r_" ^ a) r_key @ List.map (fun a -> "s_" ^ a) s_key)
      (A.project
         (List.map (fun a -> "r_" ^ a) r_key
         @ List.map (fun a -> "s_" ^ a) s_key)
         joined)
  in
  { r_tables; s_tables; r_prime; s_prime; matching_relation }

let matching_table plan ~r_key ~s_key =
  Matching_table.of_relation ~r_key_attrs:r_key ~s_key_attrs:s_key
    plan.matching_relation

let agrees plan (outcome : Identify.outcome) =
  let direct = outcome.matching_table in
  let algebraic =
    matching_table plan
      ~r_key:(Matching_table.r_key_attrs direct)
      ~s_key:(Matching_table.s_key_attrs direct)
  in
  Matching_table.cardinality direct = Matching_table.cardinality algebraic
  && List.for_all
       (Matching_table.mem direct)
       (Matching_table.entries algebraic)
