(* Buckets are keyed by the Intern match codes of the key projection:
   for values with a safe match class, code-list equality is exactly
   [Value.non_null_eq] on every attribute, and the persistent map
   compares small ints instead of walking value constructors. A key
   holding an ambiguous number (above 2^53) has no such code: its tuple
   goes on the [unsafe] list and is tested with [non_null_eq]. Every
   tuple carries its insertion number, so a lookup that finds tuples in
   both places returns them in insertion order. *)
module Cmap = Map.Make (struct
  type t = int list

  let compare = List.compare Int.compare
end)

type entry = int * Tuple.t  (** insertion number, tuple *)

type t = {
  attrs : string list;
  plan : Tuple.plan;  (** [attrs] in the schema the index was built over *)
  buckets : entry list Cmap.t;  (** reverse insertion order *)
  unsafe : (Value.t list * entry) list;
      (** tuples whose key holds an ambiguous number, with that key;
          reverse insertion order *)
  size : int;
}

let attributes t = t.attrs

let add t schema tuple =
  let key = Tuple.values (Tuple.project schema tuple t.attrs) in
  if List.exists Value.is_null key then t
  else
    let entry = (t.size, tuple) in
    let t = { t with size = t.size + 1 } in
    if List.exists Intern.is_unsafe key then
      { t with unsafe = (key, entry) :: t.unsafe }
    else
      let k = List.map (fun v -> Intern.match_code (Intern.code v)) key in
      let existing = Option.value (Cmap.find_opt k t.buckets) ~default:[] in
      { t with buckets = Cmap.add k (entry :: existing) t.buckets }

let of_tuples schema attrs tuples =
  List.fold_left
    (fun t tuple -> add t schema tuple)
    {
      attrs;
      plan = Tuple.plan schema attrs;
      buckets = Cmap.empty;
      unsafe = [];
      size = 0;
    }
    tuples

let build r attrs = of_tuples (Relation.schema r) attrs (Relation.tuples r)

(* Probing must not intern: a value whose match class no interned value
   shares cannot key any bucket, so [Intern.find_match] failing is
   simply a miss. *)
let probe_key values =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | v :: rest -> (
        match Intern.find_match v with
        | Some c -> go (c :: acc) rest
        | None -> None)
  in
  go [] values

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
        (Cmap.fold
           (fun _ entries acc ->
             List.filter (fun (_, tuple) -> agrees values (key tuple)) entries
             @ acc)
           t.buckets unsafe)
    else
      let bucket =
        match probe_key values with
        | None -> []
        | Some k -> Option.value (Cmap.find_opt k t.buckets) ~default:[]
      in
      if unsafe = [] then List.rev_map snd bucket
      else by_insertion (bucket @ unsafe)

let lookup_tuple t schema tuple =
  lookup t (Tuple.values (Tuple.project schema tuple t.attrs))

let cardinality t = t.size
