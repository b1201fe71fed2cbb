module V = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple

type conflict = {
  attribute : string;
  first : V.t;
  second : V.t;
  rule : Def.t;
}

type mode = First_rule | Check_conflicts

type derivation = {
  attribute : string;
  value : V.t;
  rule : Def.t;
}

exception Conflict_found of conflict

exception Conflict_exn of conflict

(* Precompiled view of an ILFD family: for each consequent attribute, the
   rules that can derive it (family order preserved — First_rule
   semantics depend on it) with the value each would assign. *)
type compiled = {
  rules : Def.t list;
  by_consequent : (string, (Def.t * V.t) list) Hashtbl.t;
}

let compile ilfds =
  let by_consequent = Hashtbl.create 16 in
  List.iter
    (fun rule ->
      let seen = ref [] in
      List.iter
        (fun (c : Def.condition) ->
          (* Only the first condition per attribute counts, as in the
             uncompiled engine's [value_of]. *)
          if not (List.mem c.attribute !seen) then begin
            seen := c.attribute :: !seen;
            let existing =
              Option.value
                (Hashtbl.find_opt by_consequent c.attribute)
                ~default:[]
            in
            (* Prepend now, reverse once below: linear in the family. *)
            Hashtbl.replace by_consequent c.attribute
              ((rule, c.value) :: existing)
          end)
        (Def.consequent rule))
    ilfds;
  Hashtbl.filter_map_inplace (fun _ rules -> Some (List.rev rules)) by_consequent;
  { rules = ilfds; by_consequent }

let compiled_rules c = c.rules

(* The consequent-attribute index, for evaluators built on top of the
   compiled form (the fixpoint's tries); sorted by attribute so the
   listing order is deterministic whatever the hashtable layout. Rule
   order within an attribute is family order — First_rule semantics. *)
let consequents c =
  Hashtbl.fold (fun attr rules acc -> (attr, rules) :: acc) c.by_consequent []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let extend_tuple_compiled ?(mode = First_rule) schema tuple ~target c =
  (* cells.(i) is the current value for target attribute i; source
     attributes are copied, others start NULL. *)
  let cells =
    Array.of_list
      (List.map
         (fun name ->
           match Schema.index_of_opt schema name with
           | Some _ -> Tuple.get schema tuple name
           | None -> V.Null)
         (Schema.names target))
  in
  let used : derivation list ref = ref [] in
  let in_progress = Hashtbl.create 8 in
  (* Attributes outside the target schema can still participate as
     intermediate steps of a chain (the prototype derives r_cty even
     though county is not an attribute of R′); they live in scratch. *)
  let scratch : (string, V.t option) Hashtbl.t = Hashtbl.create 8 in
  let record_use attribute value rule =
    used := { attribute; value; rule } :: !used
  in
  (* derive attr: the current value if non-NULL, else the value of the
     first ILFD (rule order) whose antecedent holds; recursion resolves
     antecedent attributes that are themselves derivable. *)
  let rec lookup attr =
    match Schema.index_of_opt target attr with
    | None ->
        (match Hashtbl.find_opt scratch attr with
        | Some cached -> cached
        | None ->
            if Hashtbl.mem in_progress attr then None
            else begin
              Hashtbl.add in_progress attr ();
              let result = derive attr in
              Hashtbl.remove in_progress attr;
              let value = Option.map fst result in
              Hashtbl.replace scratch attr value;
              (match result with
              | Some (v, rule) -> record_use attr v rule
              | None -> ());
              value
            end)
    | Some i ->
        if not (V.is_null cells.(i)) then Some cells.(i)
        else if Hashtbl.mem in_progress attr then None
        else begin
          Hashtbl.add in_progress attr ();
          let result = derive attr in
          Hashtbl.remove in_progress attr;
          (match result with
          | Some (v, rule) ->
              cells.(i) <- v;
              record_use attr v rule
          | None -> ());
          Option.map fst result
        end
  and antecedent_holds rule =
    List.for_all
      (fun (c : Def.condition) ->
        match lookup c.attribute with
        | Some v -> V.non_null_eq v c.value
        | None -> false)
      (Def.antecedent rule)
  and derive attr =
    let candidates =
      Option.value (Hashtbl.find_opt c.by_consequent attr) ~default:[]
    in
    let applicable =
      List.filter (fun (rule, _) -> antecedent_holds rule) candidates
    in
    match applicable with
    | [] -> None
    | (first_rule, v) :: rest -> (
        match mode with
        | First_rule -> Some (v, first_rule)
        | Check_conflicts -> (
            let disagreeing =
              List.find_opt (fun (_, v') -> not (V.equal v' v)) rest
            in
            match disagreeing with
            | None -> Some (v, first_rule)
            | Some (rule, second) ->
                raise
                  (Conflict_exn { attribute = attr; first = v; second; rule })))
  in
  match
    List.iter (fun name -> ignore (lookup name)) (Schema.names target)
  with
  | () -> Ok (Tuple.of_array target cells, List.rev !used)
  | exception Conflict_exn c -> Error c

let extend_tuple ?mode schema tuple ~target ilfds =
  extend_tuple_compiled ?mode schema tuple ~target (compile ilfds)

let derivable_attributes schema ilfds =
  (* Fixpoint over attribute availability: an ILFD can contribute when
     all its antecedent attributes are available. *)
  let rec fix available =
    let next =
      List.fold_left
        (fun acc i ->
          let ante_ok =
            List.for_all
              (fun (c : Def.condition) -> List.mem c.attribute acc)
              (Def.antecedent i)
          in
          if ante_ok then
            List.fold_left
              (fun acc (c : Def.condition) ->
                if List.mem c.attribute acc then acc else c.attribute :: acc)
              acc (Def.consequent i)
          else acc)
        available ilfds
    in
    if List.length next = List.length available then available else fix next
  in
  let base = Schema.names schema in
  List.filter (fun a -> not (List.mem a base)) (fix base)
  |> List.sort_uniq String.compare

let pp_conflict ppf (c : conflict) =
  Format.fprintf ppf
    "conflicting derivations for %s: %s (first applicable rule) vs %s (from %a)"
    c.attribute (V.to_string c.first) (V.to_string c.second) Def.pp c.rule
