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

let schema t = t.schema
let length t = t.length
let nth t a = t.columns.(a)
let column t name = t.columns.(Schema.index_of t.schema name)
let columns t names = Array.of_list (List.map (column t) names)

let equal a b =
  Schema.equal a.schema b.schema
  && a.length = b.length
  && Array.for_all2 (fun x y -> x = y) a.columns b.columns

let has_null cols i = Array.exists (fun col -> col.(i) = Intern.null_code) cols
