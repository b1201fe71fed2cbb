type t = {
  schema : Schema.t;
  length : int;
  columns : int array array;  (** columns.(attr).(row) *)
}

let make schema length columns =
  if
    Array.length columns <> Schema.arity schema
    || Array.exists (fun col -> Array.length col <> length) columns
  then invalid_arg "Columnar.make: one column of [length] codes per attribute";
  { schema; length; columns }

let encode schema rows =
  let arity = Schema.arity schema in
  let n = Array.length rows in
  let columns = Array.init arity (fun _ -> Array.make n 0) in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    for a = 0 to arity - 1 do
      columns.(a).(i) <- Intern.code (Tuple.nth row a)
    done
  done;
  { schema; length = n; columns }

let schema t = t.schema
let length t = t.length
let nth t a = t.columns.(a)
let column t name = t.columns.(Schema.index_of t.schema name)
let columns t names = Array.of_list (List.map (column t) names)

let equal a b =
  Schema.equal a.schema b.schema
  && a.length = b.length
  && Array.for_all2 (fun x y -> x = y) a.columns b.columns

type key_kind = Null_key | Unsafe_key | Safe_key

let key_kind matches i =
  let rec go k kind =
    if k = Array.length matches then kind
    else
      let m = matches.(k).(i) in
      if m = Intern.null_code then Null_key
      else go (k + 1) (if m = Intern.unsafe_match then Unsafe_key else kind)
  in
  go 0 Safe_key
