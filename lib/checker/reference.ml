let extend_relation ?mode r ~target ilfds =
  let c = Ilfd.Apply.compile ilfds in
  let schema = Relational.Relation.schema r in
  let extend t =
    match Ilfd.Apply.extend_tuple_compiled ?mode schema t ~target c with
    | Error conflict -> raise (Ilfd.Apply.Conflict_found conflict)
    | Ok (extended, _) -> extended
  in
  Relational.Relation.of_tuples target
    ~keys:(Relational.Relation.declared_keys r)
    (List.map extend (Relational.Relation.tuples r))

let strata ilfds =
  let rules_of = Hashtbl.create 16 in
  List.iter
    (fun rule ->
      List.iter
        (fun (c : Ilfd.condition) -> Hashtbl.add rules_of c.attribute rule)
        (Ilfd.consequent rule))
    ilfds;
  let memo = Hashtbl.create 16 in
  let rec stratum attr =
    match Hashtbl.find_opt memo attr with
    | Some d -> d
    | None ->
        Hashtbl.replace memo attr 0;
        let d =
          List.fold_left
            (fun acc rule ->
              List.fold_left
                (fun acc (c : Ilfd.condition) ->
                  max acc (1 + stratum c.attribute))
                (max acc 1) (Ilfd.antecedent rule))
            0
            (Hashtbl.find_all rules_of attr)
        in
        Hashtbl.replace memo attr d;
        d
  in
  stratum
