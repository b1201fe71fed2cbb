(* Buckets are keyed by the Intern storage codes of the key projection:
   code-list equality is exactly structural value-list equality, and the
   persistent map compares small ints instead of walking value
   constructors ([Value.compare]) on every probe. *)
module Cmap = Map.Make (struct
  type t = int list

  let compare = List.compare Int.compare
end)

type t = {
  attrs : string list;
  buckets : Tuple.t list Cmap.t;  (** reverse insertion order *)
  size : int;
}

let attributes t = t.attrs

let add_tuple buckets schema attrs tuple =
  let key = Tuple.project schema tuple attrs in
  if Tuple.has_null key then None
  else
    let k = List.map Intern.code (Tuple.values key) in
    let existing = Option.value (Cmap.find_opt k buckets) ~default:[] in
    Some (Cmap.add k (tuple :: existing) buckets)

let add t schema tuple =
  match add_tuple t.buckets schema t.attrs tuple with
  | Some buckets -> { t with buckets; size = t.size + 1 }
  | None -> t

let of_tuples schema attrs tuples =
  List.iter (fun a -> ignore (Schema.index_of schema a)) attrs;
  List.fold_left
    (fun t tuple -> add t schema tuple)
    { attrs; buckets = Cmap.empty; size = 0 }
    tuples

let build r attrs = of_tuples (Relation.schema r) attrs (Relation.tuples r)

(* Probing must not intern: a value that was never interned cannot key
   any bucket, so [Intern.find] failing is simply a miss. *)
let probe_key values =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | v :: rest -> (
        match Intern.find v with
        | Some c -> go (c :: acc) rest
        | None -> None)
  in
  go [] values

let lookup t values =
  if List.exists Value.is_null values then []
  else
    match probe_key values with
    | None -> []
    | Some k -> (
        match Cmap.find_opt k t.buckets with
        | Some l -> List.rev l
        | None -> [])

let lookup_tuple t schema tuple =
  lookup t (Tuple.values (Tuple.project schema tuple t.attrs))

let cardinality t = t.size
