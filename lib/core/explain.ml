module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module V = Relational.Value
module Columnar = Relational.Columnar
module Code_table = Relational.Code_table

type explanation = {
  entry : Matching_table.entry;
  key_values : (string * V.t) list;
  r_derivations : Ilfd.Apply.derivation list;
  s_derivations : Ilfd.Apply.derivation list;
}

type item =
  | Derived of explanation
  | Manual of { entry : Matching_table.entry; record : int }

let derive ?mode plan tuple =
  match Ilfd.Fixpoint.extend_tuple ?mode plan tuple with
  | Ok derived -> derived
  | Error conflict ->
      (* Check_conflicts mode: surface the disagreeing derivations the
         same way the extension pipeline does, witness attached, instead
         of dying on an assertion. *)
      raise (Ilfd.Apply.Conflict_found conflict)

let of_rows ?mode ~key ~r_plan ~s_plan entry tr ts =
  let r_ext, r_derivations = derive ?mode r_plan tr in
  let _, s_derivations = derive ?mode s_plan ts in
  let target = Ilfd.Fixpoint.plan_target r_plan in
  let key_values =
    List.map
      (fun a -> (a, Tuple.get target r_ext a))
      (Extended_key.attributes key)
  in
  { entry; key_values; r_derivations; s_derivations }

(* Row [p] of [probe], a key of [rel]'s, to the row of [rel] holding
   it: a code table over [rel]'s primary-key columns, which are distinct
   under a declared key, so a key's first row is its only one. *)
let find_by_key rel probe =
  let on =
    Columnar.columns (Relation.columnar rel) (Relation.primary_key rel)
  in
  let n = Relation.cardinality rel in
  let held = Code_table.create n in
  for i = 0 to n - 1 do
    ignore (Code_table.find_or_add held on i)
  done;
  fun p ->
    if Array.length probe <> Array.length on then None
    else
      let i = Code_table.find held on probe p in
      if i < 0 then None else Some (Relation.row rel i)

let matches ?mode ~r ~s ~key compiled mt =
  let plan rel =
    Ilfd.Fixpoint.plan ~source:(Relation.schema rel)
      ~target:(Identify.extension_schema rel key)
      compiled
  in
  let r_plan = plan r and s_plan = plan s in
  let r_codes, s_codes = Matching_table.key_codes mt in
  let r_row = find_by_key r r_codes and s_row = find_by_key s s_codes in
  List.concat
    (List.mapi
       (fun p entry ->
         match (r_row p, s_row p) with
         | Some tr, Some ts ->
             [ of_rows ?mode ~key ~r_plan ~s_plan entry tr ts ]
         | _ -> [])
       (Matching_table.entries mt))

let prove_derivation ilfds schema tuple (d : Ilfd.Apply.derivation) =
  (* The tuple's original non-NULL values form the antecedent; the
     derived condition must follow from the ILFDs. *)
  let given =
    List.filter_map
      (fun a ->
        let v = Tuple.get schema tuple a in
        if V.is_null v then None else Some (Ilfd.condition a v))
      (Schema.names schema)
  in
  match Ilfd.make given [ Ilfd.condition d.attribute d.value ] with
  | goal -> Ilfd.Theory.prove ilfds goal
  | exception Ilfd.Ill_formed _ -> None

let pp_derivation ppf (d : Ilfd.Apply.derivation) =
  Format.fprintf ppf "%s := %s   by %a" d.attribute (V.to_string d.value)
    Ilfd.pp d.rule

let pp_explanation ppf e =
  Format.fprintf ppf "@[<v2>match %a ~ %a@,agreed key: %s@,%a%a@]" Tuple.pp
    e.entry.Matching_table.r_key Tuple.pp e.entry.s_key
    (String.concat ", "
       (List.map
          (fun (a, v) -> Printf.sprintf "%s=%s" a (V.to_string v))
          e.key_values))
    (fun ppf ds ->
      match ds with
      | [] -> Format.fprintf ppf "R side: all key values stored directly@,"
      | _ ->
          Format.fprintf ppf "R side derivations:@,";
          List.iter (fun d -> Format.fprintf ppf "  %a@," pp_derivation d) ds)
    e.r_derivations
    (fun ppf ds ->
      match ds with
      | [] -> Format.fprintf ppf "S side: all key values stored directly"
      | _ ->
          Format.fprintf ppf "S side derivations:@,";
          List.iter (fun d -> Format.fprintf ppf "  %a@," pp_derivation d) ds)
    e.s_derivations

(* A manual pair has no derivation to show: it cites the merge that
   asserted it, and reads "manual", never "match", so a count of the
   "] match " headers counts derived pairs only. *)
let pp_manual ppf (entry : Matching_table.entry) record =
  Format.fprintf ppf
    "@[<v2>manual %a ~ %a@,asserted by merge-log record #%d; no ILFD \
     derivation@]"
    Tuple.pp entry.r_key Tuple.pp entry.s_key record

let pp_item ppf = function
  | Derived e -> pp_explanation ppf e
  | Manual { entry; record } -> pp_manual ppf entry record

let render_items items =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iteri
    (fun i item -> Format.fprintf ppf "[%d] %a@.@." (i + 1) pp_item item)
    items;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let render explanations =
  render_items (List.map (fun e -> Derived e) explanations)
