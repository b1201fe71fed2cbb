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

module Seen = Set.Make (Relational.Tuple)

(* [Error row]: the first row whose projection on [key] holds a NULL
   or repeats an earlier row's. *)
let first_breaking schema key rows =
  let seen = Hashtbl.create 64 in
  let rec loop = function
    | [] -> Ok ()
    | row :: rest ->
        let proj = Relational.Tuple.project schema row key in
        if Relational.Tuple.has_null proj then Error row
        else
          let k = Relational.Tuple.values proj in
          if Hashtbl.mem seen k then Error row
          else begin
            Hashtbl.add seen k ();
            loop rest
          end
  in
  loop rows

let set_semantics schema ~keys tuples =
  let _, distinct =
    List.fold_left
      (fun (seen, acc) row ->
        if Seen.mem row seen then (seen, acc)
        else (Seen.add row seen, row :: acc))
      (Seen.empty, []) tuples
  in
  let distinct = List.rev distinct in
  List.iter
    (fun key ->
      List.iter (fun a -> ignore (Relational.Schema.index_of schema a)) key;
      match first_breaking schema key distinct with
      | Ok () -> ()
      | Error tuple -> raise (Relational.Relation.Key_violation { key; tuple }))
    keys;
  distinct

let encode schema rows =
  let n = Array.length rows in
  Relational.Columnar.make schema n
    (Array.init (Relational.Schema.arity schema) (fun a ->
         Array.init n (fun i ->
             Relational.Intern.code (Relational.Tuple.nth rows.(i) a))))

let stratum ilfds =
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

module V = Relational.Value

type verdict = {
  result : Match_result.t;
  identity : Rules.Identity.t option;
  distinctness : Rules.Distinctness.t option;
}

exception Inconsistent of {
  identity : Rules.Identity.t;
  distinctness : Rules.Distinctness.t;
}

let decide ~identity ~distinctness s1 t1 s2 t2 =
  (* Both rule kinds state symmetric facts about (e1, e2); try each rule
     in both orientations. *)
  let fired_identity =
    List.find_opt
      (fun rule ->
        Rules.Identity.applies rule s1 t1 s2 t2 = V.True
        || Rules.Identity.applies rule s2 t2 s1 t1 = V.True)
      identity
  in
  let fired_distinctness =
    List.find_opt
      (fun rule ->
        Rules.Distinctness.applies rule s1 t1 s2 t2 = V.True
        || Rules.Distinctness.applies rule s2 t2 s1 t1 = V.True)
      distinctness
  in
  match fired_identity, fired_distinctness with
  | Some i, Some d -> raise (Inconsistent { identity = i; distinctness = d })
  | Some _, None ->
      { result = Match_result.Match;
        identity = fired_identity;
        distinctness = None }
  | None, Some _ ->
      { result = Match_result.No_match;
        identity = None;
        distinctness = fired_distinctness }
  | None, None ->
      { result = Match_result.Undetermined;
        identity = None;
        distinctness = None }

let partition_naive ~identity ~distinctness r s =
  let sr = Relational.Relation.schema r
  and ss = Relational.Relation.schema s in
  let matched = ref [] and distinct = ref [] and unknown = ref [] in
  Relational.Relation.iter
    (fun tr ->
      Relational.Relation.iter
        (fun ts ->
          let v = decide ~identity ~distinctness sr tr ss ts in
          let bucket =
            match v.result with
            | Match_result.Match -> matched
            | Match_result.No_match -> distinct
            | Match_result.Undetermined -> unknown
          in
          bucket := (tr, ts) :: !bucket)
        s)
    r;
  (List.rev !matched, List.rev !distinct, List.rev !unknown)
