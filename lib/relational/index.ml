(* Buckets are keyed by the canonical representatives of the key cells'
   match classes ([Intern.canon]): equal representatives are exactly
   [Value.non_null_eq] on every attribute. The keys are values, not
   interned codes, so an index is pure data that outlives the process
   that built it, and neither an insert nor a probe interns anything. *)
module Kmap = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

type t = {
  attrs : string list;
  plan : Tuple.plan;  (** [attrs] in the schema the index was built over *)
  buckets : Tuple.t list Kmap.t;  (** reverse insertion order *)
  size : int;
}

let attributes t = t.attrs

let add t tuple =
  let key = List.init (Tuple.plan_arity t.plan) (Tuple.nth_with t.plan tuple) in
  if List.exists Value.is_null key then t
  else
    let k = List.map Intern.canon key in
    let existing = Option.value (Kmap.find_opt k t.buckets) ~default:[] in
    {
      t with
      buckets = Kmap.add k (tuple :: existing) t.buckets;
      size = t.size + 1;
    }

let of_tuples schema attrs tuples =
  List.fold_left add
    { attrs; plan = Tuple.plan schema attrs; buckets = Kmap.empty; size = 0 }
    tuples

let build r attrs = of_tuples (Relation.schema r) attrs (Relation.tuples r)

let lookup t values =
  if List.exists Value.is_null values then []
  else
    match Kmap.find_opt (List.map Intern.canon values) t.buckets with
    | Some bucket -> List.rev bucket
    | None -> []

let lookup_tuple t schema tuple =
  lookup t (Tuple.values (Tuple.project schema tuple t.attrs))

let cardinality t = t.size
