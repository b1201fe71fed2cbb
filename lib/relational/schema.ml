type t = { names : string array; positions : (string, int) Hashtbl.t }

exception Duplicate_attribute of string
exception Unknown_attribute of string

let of_array names =
  let positions = Hashtbl.create (Array.length names) in
  Array.iteri
    (fun i name ->
      if Hashtbl.mem positions name then raise (Duplicate_attribute name);
      Hashtbl.add positions name i)
    names;
  { names; positions }

let of_names names = of_array (Array.of_list names)

let names s = Array.to_list s.names
let arity s = Array.length s.names
let mem s name = Hashtbl.mem s.positions name

let index_of_opt s name = Hashtbl.find_opt s.positions name

let index_of s name =
  match index_of_opt s name with
  | Some i -> i
  | None -> raise (Unknown_attribute name)

let project s names =
  of_names (List.map (fun n -> s.names.(index_of s n)) names)

let concat a b = of_array (Array.append a.names b.names)

let rename s mapping =
  List.iter
    (fun (src, _) -> if not (mem s src) then raise (Unknown_attribute src))
    mapping;
  let rename_one name =
    Option.value (List.assoc_opt name mapping) ~default:name
  in
  of_array (Array.map rename_one s.names)

let restrict_away s drop =
  of_names (List.filter (fun name -> not (List.mem name drop)) (names s))

let common a b = List.filter (mem b) (names a)

let equal a b = a.names = b.names

let pp ppf s =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_string)
    (names s)

let to_string s = Format.asprintf "%a" pp s
