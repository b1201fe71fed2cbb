(* Keys compare with [Value.compare], which is 0 exactly when
   [Value.equal] holds: the equality [Relation.check_key] and
   [Relation]'s set semantics use. *)
module Kmap = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

type index = {
  key : string list;
  plan : Tuple.plan;
  by_key : Tuple.t Kmap.t;  (** projection on [key] -> the row carrying it *)
}

type t = {
  schema : Schema.t;
  keys : string list list;  (** as declared *)
  indexes : index list;  (** one per declared key, or one on the schema *)
  rows : Tuple.t list;  (** reverse insertion order *)
  count : int;
}

let empty schema ~keys =
  let index key = { key; plan = Tuple.plan schema key; by_key = Kmap.empty } in
  let indexed = match keys with [] -> [ Schema.names schema ] | _ -> keys in
  { schema; keys; indexes = List.map index indexed; rows = []; count = 0 }

let project ix tuple =
  List.init (Tuple.plan_arity ix.plan) (Tuple.nth_with ix.plan tuple)

(* The first index that finds a NULL or a stored row decides, in
   declaration order. A stored row equal to [tuple] agrees with it on
   every key, so the first index is the one that finds an exact
   duplicate; on a later index a hit is always a different row. *)
let add t tuple =
  let declared = t.keys <> [] in
  let projections = List.map (fun ix -> project ix tuple) t.indexes in
  let violation ix = Relation.Key_violation { key = ix.key; tuple } in
  let rec probe indexes projections =
    match (indexes, projections) with
    | ix :: indexes, k :: projections ->
        if declared && List.exists Value.is_null k then raise (violation ix);
        (match Kmap.find_opt k ix.by_key with
        | None -> probe indexes projections
        | Some row when Tuple.equal row tuple -> false
        | Some _ -> raise (violation ix))
    | _ -> true
  in
  if not (probe t.indexes projections) then None
  else
    Some
      {
        t with
        indexes =
          List.map2
            (fun ix k -> { ix with by_key = Kmap.add k tuple ix.by_key })
            t.indexes projections;
        rows = tuple :: t.rows;
        count = t.count + 1;
      }

let of_tuples schema ~keys tuples =
  List.fold_left
    (fun t tuple -> Option.value (add t tuple) ~default:t)
    (empty schema ~keys) tuples

let of_relation r =
  of_tuples (Relation.schema r) ~keys:(Relation.declared_keys r)
    (Relation.tuples r)

let schema t = t.schema
let declared_keys t = t.keys
let primary_key t = (List.hd t.indexes).key
let cardinality t = t.count

let mem_key t values =
  let ix = List.hd t.indexes in
  Array.length values = Tuple.plan_arity ix.plan
  && Kmap.mem (Array.to_list values) ix.by_key

let tuples t = List.rev t.rows
let to_relation t = Relation.of_tuples t.schema ~keys:t.keys (tuples t)
