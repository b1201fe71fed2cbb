(* Federated updates: the paper notes that in a federation "instance
   integration may have to be performed whenever updating is done on the
   participating databases". The incremental engine keeps the matching
   table current as tuples arrive, without re-running the pipeline — and
   replays the paper's Example 1 insertion story safely: the new
   (VillageWok, Penn.Ave.) tuple does NOT get confused with the existing
   VillageWok, because the extended key disambiguates.

   Run with:  dune exec examples/federated_updates.exe *)

module R = Relational
module E = Entity_id

let v = R.Value.string

let show_mt t =
  print_string
    (R.Pretty.render
       (E.Matching_table.to_relation (E.Incremental.matching_table t)))

let () =
  (* Start from Example 3's state. *)
  let t =
    E.Incremental.create ~r:Workload.Paper_data.table5_r
      ~s:Workload.Paper_data.table5_s ~key:Workload.Paper_data.example3_key
      Workload.Paper_data.ilfds_i1_i8
  in
  print_endline "initial matching table:";
  show_mt t;

  (* DB2 inserts a new restaurant; no rule derives its cuisine yet, so
     nothing can match — soundness preserved under ignorance. *)
  let pho =
    R.Tuple.make
      (R.Relation.schema (E.Incremental.s t))
      [ v "PhoPalace"; v "Pho"; v "Hennepin" ]
  in
  let created = E.Incremental.insert_s t pho in
  Printf.printf "\ninsert S (PhoPalace, Pho, Hennepin): %d new match(es)\n"
    (List.length created);

  (* DB1 inserts the matching record; still no rule. *)
  let pho_r =
    R.Tuple.make
      (R.Relation.schema (E.Incremental.r t))
      [ v "PhoPalace"; v "Vietnamese"; v "Lake.Ave." ]
  in
  let created = E.Incremental.insert_r t pho_r in
  Printf.printf "insert R (PhoPalace, Vietnamese, Lake.Ave.): %d new match(es)\n"
    (List.length created);

  (* The DBA supplies the missing knowledge — the S side needs cuisine,
     the R side needs speciality — and the pair appears. *)
  let pho_rules =
    [ Ilfd.parse "speciality = Pho -> cuisine = Vietnamese";
      Ilfd.parse "name = PhoPalace & street = Lake.Ave. -> speciality = Pho" ]
  in
  let t = List.fold_left E.Incremental.add_ilfd t pho_rules in
  print_endline "\nafter adding the two Pho rules:";
  show_mt t;

  (* The paper's Example 1 story, incrementally: a second VillageWok on a
     different street arrives. Name-equality would now be ambiguous; the
     extended key keeps the table sound. *)
  let second_villagewok =
    R.Tuple.make
      (R.Relation.schema (E.Incremental.r t))
      [ v "VillageWok"; v "American"; v "Penn.Ave." ]
  in
  let created = E.Incremental.insert_r t second_villagewok in
  Printf.printf
    "\ninsert R (VillageWok, American, Penn.Ave.): %d new match(es); \
     uniqueness violations: %d\n"
    (List.length created)
    (List.length (E.Incremental.violations t));

  (* Equivalence with the batch pipeline. *)
  let batch =
    E.Identify.run ~r:(E.Incremental.r t) ~s:(E.Incremental.s t)
      ~key:Workload.Paper_data.example3_key
      (Workload.Paper_data.ilfds_i1_i8 @ pho_rules)
  in
  let incr_mt = E.Incremental.matching_table t in
  let agree =
    E.Matching_table.cardinality batch.matching_table
    = E.Matching_table.cardinality incr_mt
    && List.for_all
         (E.Matching_table.mem batch.matching_table)
         (E.Matching_table.entries incr_mt)
  in
  Printf.printf "\nincremental state equals batch recomputation: %b\n" agree
