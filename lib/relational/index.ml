(* Buckets are keyed by the canonical representatives of the key cells'
   match classes ([Intern.canon]): for values with a safe match class,
   equal representatives are exactly [Value.non_null_eq] on every
   attribute. The keys are values, not interned codes, so an index is
   pure data that outlives the process that built it, and neither an
   insert nor a probe interns anything. A key holding an ambiguous
   number (above 2^53) has no representative: its tuple goes on the
   [unsafe] list and is tested with [non_null_eq]. Every tuple carries
   its insertion number, so a lookup that finds tuples in both places
   returns them in insertion order. *)
module Kmap = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

type entry = int * Tuple.t  (** insertion number, tuple *)

type t = {
  attrs : string list;
  plan : Tuple.plan;  (** [attrs] in the schema the index was built over *)
  buckets : entry list Kmap.t;  (** reverse insertion order *)
  unsafe : (Value.t list * entry) list;
      (** tuples whose key holds an ambiguous number, with that key;
          reverse insertion order *)
  size : int;
}

let attributes t = t.attrs

let add t tuple =
  let key = List.init (Tuple.plan_arity t.plan) (Tuple.nth_with t.plan tuple) in
  if List.exists Value.is_null key then t
  else
    let entry = (t.size, tuple) in
    let t = { t with size = t.size + 1 } in
    if List.exists Intern.is_unsafe key then
      { t with unsafe = (key, entry) :: t.unsafe }
    else
      let k = List.map Intern.canon key in
      let existing = Option.value (Kmap.find_opt k t.buckets) ~default:[] in
      { t with buckets = Kmap.add k (entry :: existing) t.buckets }

let of_tuples schema attrs tuples =
  List.fold_left add
    {
      attrs;
      plan = Tuple.plan schema attrs;
      buckets = Kmap.empty;
      unsafe = [];
      size = 0;
    }
    tuples

let build r attrs = of_tuples (Relation.schema r) attrs (Relation.tuples r)

let agrees values key = List.for_all2 Value.non_null_eq values key

let by_insertion entries =
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) entries)

let lookup t values =
  if List.exists Value.is_null values then []
  else
    let unsafe =
      List.filter_map
        (fun (key, entry) -> if agrees values key then Some entry else None)
        t.unsafe
    in
    if List.exists Intern.is_unsafe values then
      (* The fallback: an ambiguous number can match values of more than
         one match class, so every bucketed tuple is tested. *)
      let key tuple =
        List.init (Tuple.plan_arity t.plan) (Tuple.nth_with t.plan tuple)
      in
      by_insertion
        (Kmap.fold
           (fun _ entries acc ->
             List.filter (fun (_, tuple) -> agrees values (key tuple)) entries
             @ acc)
           t.buckets unsafe)
    else
      let bucket =
        Option.value
          (Kmap.find_opt (List.map Intern.canon values) t.buckets)
          ~default:[]
      in
      if unsafe = [] then List.rev_map snd bucket
      else by_insertion (bucket @ unsafe)

let lookup_tuple t schema tuple =
  lookup t (Tuple.values (Tuple.project schema tuple t.attrs))

let cardinality t = t.size
