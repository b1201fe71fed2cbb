module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module V = Relational.Value

type member = { db : string; tuple : Tuple.t }

type cluster = {
  key_values : V.t list;
  members : member list;
}

type result = {
  clusters : cluster list;
  singletons : member list;
  undetermined : member list;
  violations : cluster list;
  extended : (string * Relation.t) list;
}

module Vmap = Map.Make (struct
  type t = V.t list

  let compare = List.compare V.compare
end)

let integrate ~key ilfds dbs =
  let names = List.map fst dbs in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Cluster.integrate: duplicate database names";
  let kext = Extended_key.attributes key in
  let compiled = Ilfd.Apply.compile ilfds in
  let extended =
    List.map
      (fun (name, r) ->
        let target = Identify.extension_schema r key in
        (name, Ilfd.Fixpoint.extend_relation r ~target compiled))
      dbs
  in
  let buckets = ref Vmap.empty in
  let undetermined = ref [] in
  List.iter
    (fun (db, r) ->
      let schema = Relation.schema r in
      Relation.iter
        (fun tuple ->
          let k = Tuple.project schema tuple kext in
          let m = { db; tuple } in
          if Tuple.has_null k then undetermined := m :: !undetermined
          else
            let kv = Tuple.values k in
            buckets :=
              Vmap.update kv
                (fun ms -> Some (m :: Option.value ms ~default:[]))
                !buckets)
        r)
    extended;
  let clusters, singletons =
    Vmap.fold
      (fun key_values members (clusters, singletons) ->
        match members with
        | [ m ] -> (clusters, m :: singletons)
        | _ :: _ :: _ ->
            ({ key_values; members = List.rev members } :: clusters,
             singletons)
        | [] -> (clusters, singletons))
      !buckets ([], [])
  in
  let violations =
    List.filter
      (fun c ->
        let dbs_of = List.map (fun m -> m.db) c.members in
        List.length (List.sort_uniq String.compare dbs_of)
        <> List.length dbs_of)
      clusters
  in
  {
    clusters = List.rev clusters;
    singletons = List.rev singletons;
    undetermined = List.rev !undetermined;
    violations;
    extended;
  }

let pairwise_consistent ~key ilfds dbs result =
  let in_same_cluster a_db a_key b_db b_key =
    List.exists
      (fun c ->
        let has db k =
          List.exists
            (fun m -> m.db = db && Tuple.equal m.tuple k)
            c.members
        in
        has a_db a_key && has b_db b_key)
      result.clusters
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.for_all
    (fun ((na, ra), (nb, rb)) ->
      let o = Identify.run ~r:ra ~s:rb ~key ilfds in
      List.for_all
        (fun (tr, ts) -> in_same_cluster na tr nb ts)
        o.Identify.pairs)
    (pairs dbs)

let pp_cluster ppf c =
  Format.fprintf ppf "{%s} <- %a"
    (String.concat ", " (List.map V.to_string c.key_values))
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
       (fun ppf m -> Format.fprintf ppf "%s:%a" m.db Tuple.pp m.tuple))
    c.members
