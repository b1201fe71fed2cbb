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

module Matching_table = struct
  module MT = Entity_id.Matching_table
  module Tuple = Relational.Tuple

  type t = { attrs : string list * string list; entries : MT.entry list }

  let same (a : MT.entry) (b : MT.entry) =
    Tuple.equal a.r_key b.r_key && Tuple.equal a.s_key b.s_key

  let mem t e = List.exists (same e) t.entries

  let make ~r_key_attrs ~s_key_attrs entries =
    let kept =
      List.fold_left
        (fun kept e -> if List.exists (same e) kept then kept else e :: kept)
        [] entries
    in
    { attrs = (r_key_attrs, s_key_attrs); entries = List.rev kept }

  let entries t = t.entries
  let cardinality t = List.length t.entries

  let add t e =
    let r_key_attrs, s_key_attrs = t.attrs in
    make ~r_key_attrs ~s_key_attrs (t.entries @ [ e ])

  (* Each key [side] gives that two or more entries share, at its first
     entry, with every partner [other] gives, in entry order. *)
  let shared side other entries =
    let rec firsts seen = function
      | [] -> []
      | e :: rest when List.exists (Tuple.equal (side e)) seen ->
          firsts seen rest
      | e :: rest -> (
          match
            List.filter (fun d -> Tuple.equal (side d) (side e)) entries
          with
          | _ :: _ :: _ as group ->
              (side e, List.map other group) :: firsts (side e :: seen) rest
          | _ -> firsts (side e :: seen) rest)
    in
    firsts [] entries

  let uniqueness_violations t =
    List.map
      (fun (r_key, s_keys) -> MT.R_tuple_matched_twice { r_key; s_keys })
      (shared (fun (e : MT.entry) -> e.r_key) (fun e -> e.s_key) t.entries)
    @ List.map
        (fun (s_key, r_keys) -> MT.S_tuple_matched_twice { s_key; r_keys })
        (shared (fun (e : MT.entry) -> e.s_key) (fun e -> e.r_key) t.entries)

  let consistent mt nmt = not (List.exists (mem nmt) mt.entries)

  let to_relation t =
    let r_key_attrs, s_key_attrs = t.attrs in
    Relational.Relation.of_tuples
      (Relational.Schema.of_names
         (List.map (( ^ ) "r_") r_key_attrs
         @ List.map (( ^ ) "s_") s_key_attrs))
      (List.sort Tuple.compare
         (List.map
            (fun (e : MT.entry) -> Tuple.concat e.r_key e.s_key)
            t.entries))
end

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
