(* Quickstart: match two small relations that share no common candidate
   key, using an extended key plus one ILFD — the paper's Example 2.

   Run with:  dune exec examples/quickstart.exe *)

module R = Relational

let v = R.Value.string

let () =
  (* R(name, cuisine, street), key (name, cuisine). *)
  let r =
    R.Relation.create
      (R.Schema.of_names [ "name"; "cuisine"; "street" ])
      ~keys:[ [ "name"; "cuisine" ] ]
      [
        [ v "TwinCities"; v "Chinese"; v "Wash.Ave." ];
        [ v "TwinCities"; v "Indian"; v "Univ.Ave." ];
      ]
  in
  (* S(name, speciality, city), key (name, speciality) — no key in
     common with R. *)
  let s =
    R.Relation.create
      (R.Schema.of_names [ "name"; "speciality"; "city" ])
      ~keys:[ [ "name"; "speciality" ] ]
      [ [ v "TwinCities"; v "Mughalai"; v "St. Paul" ] ]
  in
  (* Semantic knowledge: every Mughalai restaurant is Indian. *)
  let ilfds = [ Ilfd.parse "speciality = Mughalai -> cuisine = Indian" ] in
  (* The extended key for the integrated world. *)
  let key = Entity_id.Extended_key.make [ "name"; "cuisine" ] in
  let res = Entity_id.Identify.matched ~r ~s ~key ilfds in
  let mt = Entity_id.Identify.matching_table res in
  print_string
    (R.Pretty.render ~title:"matching table"
       (Entity_id.Matching_table.to_relation mt));
  print_newline ();
  print_string
    (R.Pretty.render ~title:"integrated table"
       (Entity_id.Integrate.integrated_table res));
  print_newline ();
  Format.printf "%a@."
    Entity_id.Verify.pp_report
    (Entity_id.Verify.check mt)
