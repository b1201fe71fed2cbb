module V = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Intern = Relational.Intern
module Code_table = Relational.Code_table

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

(* One group per run of consecutive same-antecedent-signature rules of a
   consequent attribute. Its trie is built on the group's first walk,
   from code tables over the group's rule rows: row [j] holds rule [j]'s
   antecedent match codes, in the antecedent's sorted condition order,
   one column per condition, and one row past the last rule is the
   probe a walk writes a tuple's codes into. There is one table per
   proper-prefix length, keyed on that many leading columns, and one
   over the full keys, whose first row for each key holds every (rule,
   value, value's storage code) that key fires, in family order. *)
type trie = {
  keys : int array array;
  probe : int;
  prefixes : int array array array;
  prefix_tables : Code_table.t array;
  full : Code_table.t;
  leaves : (Def.t * V.t * int) list array;
}

type group = { sig_ids : int array; trie : trie Lazy.t }

(* Precompiled view of an ILFD family: for each consequent attribute, the
   rules that can derive it (family order preserved — First_rule
   semantics depend on it) with the value each would assign; and, for
   the evaluator, every attribute the family mentions numbered as a
   column, each column's rule groups and whether the family is acyclic.
   Nothing here depends on a source or target schema, so every plan made
   from the family shares it, tries included. *)
type compiled = {
  rules : Def.t list;
  by_consequent : (string, (Def.t * V.t) list) Hashtbl.t;
  columns : string array;
  groups : group list array;
  acyclic : bool;
}

(* The consequent-attribute index, sorted by attribute so the listing
   order is deterministic whatever the hashtable layout. Rule order
   within an attribute is family order — First_rule semantics. *)
let listing by_consequent =
  Hashtbl.fold (fun attr rules acc -> (attr, rules) :: acc) by_consequent []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The rules' values are interned in family order, each rule's
   antecedent values then its value: [Intern] numbers values first seen
   first, so this order fixes the codes the family's values get. *)
let build_trie rules =
  let n = Array.length rules in
  let m = List.length (Def.antecedent (fst rules.(0))) in
  let keys = Array.init m (fun _ -> Array.make (n + 1) 0) in
  let codes =
    Array.mapi
      (fun j (rule, v) ->
        List.iteri
          (fun k (c : Def.condition) ->
            keys.(k).(j) <- Intern.match_code (Intern.code c.value))
          (Def.antecedent rule);
        Intern.code v)
      rules
  in
  let prefixes = Array.init (max 0 (m - 1)) (fun p -> Array.sub keys 0 (p + 1)) in
  let prefix_tables =
    Array.map
      (fun cols ->
        let t = Code_table.create n in
        for j = 0 to n - 1 do
          ignore (Code_table.find_or_add t cols j)
        done;
        t)
      prefixes
  in
  let full = Code_table.create n in
  let first = Array.init n (fun j -> Code_table.find_or_add full keys j) in
  let leaves = Array.make n [] in
  for j = n - 1 downto 0 do
    let rule, v = rules.(j) in
    leaves.(first.(j)) <- (rule, v, codes.(j)) :: leaves.(first.(j))
  done;
  { keys; probe = n; prefixes; prefix_tables; full; leaves }

let same_signature a b =
  List.equal
    (fun (c : Def.condition) (d : Def.condition) ->
      String.equal c.attribute d.attribute)
    (Def.antecedent a) (Def.antecedent b)

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
  (* Columns, in first-mention order over the listing: each attribute,
     then its groups' signatures. *)
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let names = ref [] in
  let id_of attr =
    match Hashtbl.find_opt ids attr with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids attr i;
        names := attr :: !names;
        i
  in
  let rec groups_of = function
    | [] -> []
    | ((rule, _) :: _) as rules ->
        let rec span acc = function
          | ((r, _) as x) :: tl when same_signature r rule -> span (x :: acc) tl
          | tl -> (Array.of_list (List.rev acc), tl)
        in
        let same, rest = span [] rules in
        let sig_ids =
          Array.of_list
            (List.map (fun (c : Def.condition) -> id_of c.attribute)
               (Def.antecedent rule))
        in
        let g = { sig_ids; trie = lazy (build_trie same) } in
        g :: groups_of rest
  in
  let grouped =
    List.map
      (fun (attr, rules) ->
        let id = id_of attr in
        (id, groups_of rules))
      (listing by_consequent)
  in
  let columns = Array.of_list (List.rev !names) in
  let n = Array.length columns in
  let groups = Array.make n [] in
  List.iter (fun (id, gs) -> groups.(id) <- gs) grouped;
  (* On a cycle a lookup can re-enter an attribute in progress, and the
     demand order the reference's cut semantics depend on is no longer a
     walk over the tries. A group's rules all read its signature. *)
  let visit = Bytes.make n '\000' in
  let rec acyclic id =
    match Bytes.get visit id with
    | '\002' -> true
    | '\001' -> false
    | _ ->
        Bytes.set visit id '\001';
        List.for_all (fun g -> Array.for_all acyclic g.sig_ids) groups.(id)
        && begin
             Bytes.set visit id '\002';
             true
           end
  in
  let rec all_acyclic id = id = n || (acyclic id && all_acyclic (id + 1)) in
  { rules = ilfds; by_consequent; columns; groups; acyclic = all_acyclic 0 }

let compiled_rules c = c.rules
let consequents c = listing c.by_consequent
let columns c = c.columns
let groups c = c.groups
let acyclic c = c.acyclic

(* Position [i]'s code is written into the probe row before the prefix
   of length [i + 1] is looked up; the last position has no prefix
   table, and [leaves] looks the whole row up. *)
let prefix_found t i c =
  t.keys.(i).(t.probe) <- c;
  i = Array.length t.keys - 1
  || Code_table.find t.prefix_tables.(i) t.prefixes.(i) t.prefixes.(i) t.probe
     >= 0

let leaves t =
  let j = Code_table.find t.full t.keys t.keys t.probe in
  if j < 0 then [] else t.leaves.(j)

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
