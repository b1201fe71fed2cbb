type t = Value.t array

exception Arity_mismatch of { expected : int; got : int }

let of_array schema arr =
  let expected = Schema.arity schema in
  if Array.length arr <> expected then
    raise (Arity_mismatch { expected; got = Array.length arr });
  Array.copy arr

let make schema values = of_array schema (Array.of_list values)

let arity = Array.length
let nth t i = t.(i)
let get schema t name = t.(Schema.index_of schema name)
let get_opt schema t name =
  Option.map (fun i -> t.(i)) (Schema.index_of_opt schema name)

let values = Array.to_list
let to_array t = Array.copy t

let set schema t name v =
  let copy = Array.copy t in
  copy.(Schema.index_of schema name) <- v;
  copy

let project schema t names =
  Array.of_list (List.map (fun n -> t.(Schema.index_of schema n)) names)

type plan = int array

let plan schema names =
  Array.of_list (List.map (Schema.index_of schema) names)

let plan_arity = Array.length

let project_with plan t = Array.map (fun i -> t.(i)) plan

let nth_with plan t k = t.(plan.(k))

let concat = Array.append

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Value.equal a b

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec loop i =
      if i = Array.length a then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let has_null t = Array.exists Value.is_null t

let agree sa a sb b names =
  List.for_all
    (fun n -> Value.non_null_eq (get sa a n) (get sb b n))
    names

let agree_with pa pb a b =
  if Array.length pa <> Array.length pb then
    invalid_arg "Tuple.agree_with: plans of different arity";
  let n = Array.length pa in
  let rec loop k =
    k = n || (Value.non_null_eq a.(pa.(k)) b.(pb.(k)) && loop (k + 1))
  in
  loop 0

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (values t)

let to_string t = Format.asprintf "%a" pp t
