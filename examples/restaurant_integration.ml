(* The paper's Example 3, end to end: Tables 5 → 6 → 7, the negative
   matching table, the integrated table, the derived ILFD I9, and the
   Armstrong proof that I9 follows from I7 and I8.

   Run with:  dune exec examples/restaurant_integration.exe *)

module R = Relational
module W = Workload.Paper_data

let section title =
  Printf.printf "\n=== %s ===\n" title

let () =
  let r = W.table5_r and s = W.table5_s in
  let ilfds = W.ilfds_i1_i8 and key = W.example3_key in

  section "Table 5: the source relations";
  print_string (R.Pretty.render ~title:"R(name, cuisine, street)" r);
  print_newline ();
  print_string (R.Pretty.render ~title:"S(name, speciality, county)" s);

  section "The available ILFDs (I1-I8)";
  List.iteri
    (fun i rule -> Printf.printf "I%d: %s\n" (i + 1) (Ilfd.to_string rule))
    ilfds;

  section "Derived ILFD I9 (pseudotransitivity of I7 and I8)";
  let saturated = Ilfd.Theory.saturate ilfds in
  let i9 = W.ilfd_i9 in
  Printf.printf "I9: %s\n" (Ilfd.to_string i9);
  Printf.printf "contained in saturation: %b\n"
    (List.exists (Ilfd.equal i9) saturated);
  (match Ilfd.Theory.prove ilfds i9 with
  | Some proof ->
      Printf.printf "Armstrong proof found (size %d)\n"
        (Proplogic.Armstrong.size proof)
  | None -> print_endline "no proof (unexpected!)");

  section "Table 6: the extended relations R' and S'";
  let res = Entity_id.Identify.matched ~r ~s ~key ilfds in
  let outcome = Entity_id.Identify.decode res in
  print_string (R.Pretty.render ~title:"R'" outcome.r_extended);
  print_newline ();
  print_string (R.Pretty.render ~title:"S'" outcome.s_extended);

  section "Table 7: the matching table MT_RS";
  print_string
    (R.Pretty.render
       (Entity_id.Matching_table.to_relation outcome.matching_table));
  Format.printf "%a@." Entity_id.Verify.pp_report
    (Entity_id.Verify.check outcome.matching_table);

  section "Table 8: ILFDs I1-I4 stored as the relation IM(speciality; cuisine)";
  let uniform =
    List.filteri (fun i _ -> i < 4) ilfds
  in
  List.iter
    (fun table -> Format.printf "%a@." Ilfd.Table.pp table)
    (Ilfd.Table.of_ilfds uniform);

  section "Negative matching table (Proposition 1 on the ILFDs)";
  let nmt =
    Entity_id.Negative.of_ilfds ~r:outcome.r_extended ~s:outcome.s_extended
      ilfds
  in
  Printf.printf "%d provably-distinct pairs (of %d total pairs); sample:\n"
    (Entity_id.Matching_table.cardinality nmt)
    (R.Relation.cardinality r * R.Relation.cardinality s);
  let rel = Entity_id.Matching_table.to_relation nmt in
  print_string (R.Pretty.render rel);

  section "The integrated table T_RS";
  print_string
    (R.Pretty.render (Entity_id.Integrate.integrated_table res));

  section "Algebraic pipeline (Section 4.2) agreement";
  let plan = Entity_id.Algebraic.run ~r ~s ~key ilfds in
  Printf.printf "relational-expression construction agrees with engine: %b\n"
    (Entity_id.Algebraic.agrees plan outcome)
