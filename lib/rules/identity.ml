type t = { name : string; atoms : Atom.t list }

exception Ill_formed of string

let validate atoms =
  match atoms with
  | [] -> Error "an identity rule needs at least one predicate"
  | _ :: _ ->
      let implied = Atom.implied_equalities atoms in
      let offending =
        List.find_opt
          (fun a -> not (List.mem a implied))
          (Atom.mentioned_attributes atoms)
      in
      (match offending with
      | None -> Ok ()
      | Some a ->
          Error
            (Printf.sprintf
               "predicates do not imply e1.%s = e2.%s (required for every \
                attribute mentioned by an identity rule)"
               a a))

let make ~name atoms =
  match validate atoms with
  | Ok () -> { name; atoms }
  | Error reason -> raise (Ill_formed (name ^ ": " ^ reason))

let of_attribute_equalities ~name attrs =
  if attrs = [] then raise (Ill_formed (name ^ ": empty attribute list"));
  make ~name (List.map Atom.eq_attrs attrs)

let applies rule s1 t1 s2 t2 = Atom.eval_all s1 t1 s2 t2 rule.atoms

let attributes rule =
  let ls, rs = List.split (List.map Atom.attributes rule.atoms) in
  ( List.sort_uniq String.compare (List.concat ls),
    List.sort_uniq String.compare (List.concat rs) )

let pp ppf rule =
  Format.fprintf ppf "%s: %a -> (e1 == e2)" rule.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
       Atom.pp)
    rule.atoms
