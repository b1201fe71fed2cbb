(* Reproduction of every table and figure in the paper. Each experiment
   prints the paper's expectation followed by what this implementation
   produces, so EXPERIMENTS.md can be checked line by line against
   `dune exec bench/main.exe`. *)

module R = Relational
module V = R.Value
module E = Entity_id
module PD = Workload.Paper_data

let banner id title =
  Printf.printf "\n================ %s: %s ================\n" id title

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let show ?title rel = print_string (R.Pretty.render ?title rel)

let abbrev =
  [ ("cuisine", "cui"); ("speciality", "spec"); ("street", "str");
    ("county", "cty") ]

(* ---- Table 1 ---- *)

let table1 () =
  banner "T1" "Table 1 — the motivating relations (Example 1)";
  show ~title:"R(name, street, cuisine), key (name, street)" PD.table1_r;
  print_newline ();
  show ~title:"S(name, city, manager), key (name, city)" PD.table1_s;
  note "paper: R and S share no common candidate key, so key equivalence";
  note "is inapplicable; matching on the shared attribute `name` becomes";
  note "ambiguous once (VillageWok, Penn.Ave.) is inserted into R.";
  (match Baselines.Key_equiv.run PD.table1_r PD.table1_s with
  | Ok _ -> note "MEASURED: unexpected common key!"
  | Error e -> note "MEASURED: key equivalence inapplicable (%s)" e);
  let r' =
    R.Relation.add PD.table1_r
      (R.Tuple.make
         (R.Relation.schema PD.table1_r)
         [ V.string "VillageWok"; V.string "Penn.Ave."; V.string "Chinese" ])
  in
  let mt = Baselines.Key_equiv.run_on_attributes ~attrs:[ "name" ] r' PD.table1_s in
  note "MEASURED: after the paper's insertion, name-equality matching has %d"
    (List.length (E.Matching_table.uniqueness_violations mt));
  note "uniqueness violation(s) — one S tuple matched to two R tuples."

(* ---- Table 2 / 3 ---- *)

let table2 () =
  banner "T2" "Table 2 — Example 2's relations";
  show ~title:"R(name, cuisine, street), key (name, cuisine)" PD.table2_r;
  print_newline ();
  show ~title:"S(name, speciality, city), key (name, speciality)" PD.table2_s;
  note "paper: K_Ext = {name, cuisine}; S lacks cuisine, derived by the";
  note "ILFD speciality=Mughalai -> cuisine=Indian."

let table3 () =
  banner "T3" "Table 3 — MT_RS of Example 2";
  let o =
    E.Identify.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
      [ PD.example2_ilfd ]
  in
  note "paper: exactly one row — (TwinCities, Indian) x (TwinCities).";
  show (E.Matching_table.to_relation o.matching_table);
  note "MEASURED: %d row(s); verified=%b"
    (E.Matching_table.cardinality o.matching_table)
    (E.Identify.is_verified o)

(* ---- Table 4 ---- *)

let table4 () =
  banner "T4" "Table 4 — the negative matching table NMT_RS (Proposition 1)";
  note "paper: (TwinCities, Chinese) x (TwinCities[, Mughalai]) is provably";
  note "distinct: Mughalai implies Indian, and Chinese <> Indian.";
  let nmt =
    E.Negative.of_ilfds ~r:PD.table2_r ~s:PD.table2_s [ PD.example2_ilfd ]
  in
  show (E.Matching_table.to_relation nmt);
  note "MEASURED: %d row(s)." (E.Matching_table.cardinality nmt)

(* ---- Table 5 / 6 / 7 ---- *)

let table5 () =
  banner "T5" "Table 5 — Example 3's relations";
  show ~title:"R(name, cuisine, street), key (name, cuisine)" PD.table5_r;
  print_newline ();
  show ~title:"S(name, speciality, county), key (name, speciality)"
    PD.table5_s

let example3_outcome () =
  E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
    PD.ilfds_i1_i8

let table6 () =
  banner "T6" "Table 6 — the extended relations R' and S'";
  let o = example3_outcome () in
  note "paper R': speciality derived for TwinCities/Chinese (Hunan via I5),";
  note "It'sGreek (Gyros via I7+I8, i.e. derived I9) and Anjuman (Mughalai";
  note "via I6); NULL for TwinCities/Indian and VillageWok.";
  show ~title:"R' (measured)"
    (R.Algebra.project [ "name"; "cuisine"; "speciality"; "street" ]
       o.r_extended);
  print_newline ();
  note "paper S': cuisine derived for every tuple via I1-I4.";
  show ~title:"S' (measured)"
    (R.Algebra.project [ "name"; "speciality"; "cuisine"; "county" ]
       o.s_extended)

let table7 () =
  banner "T7" "Table 7 — MT_RS of Example 3";
  let o = example3_outcome () in
  note "paper: three rows — Anjuman/Mughalai, It'sGreek/Gyros,";
  note "TwinCities-Chinese/Hunan.";
  show (E.Matching_table.to_relation o.matching_table);
  note "MEASURED: %d rows; verified=%b"
    (E.Matching_table.cardinality o.matching_table)
    (E.Identify.is_verified o)

(* ---- Table 8 ---- *)

let table8 () =
  banner "T8" "Table 8 — the ILFD table IM(speciality; cuisine)";
  note "paper: I1-I4 stored as a 4-row relation keyed on speciality.";
  let uniform = List.filteri (fun i _ -> i < 4) PD.ilfds_i1_i8 in
  List.iter
    (fun t -> show (Ilfd.Table.to_relation t))
    (Ilfd.Table.of_ilfds uniform);
  (* Round-trip sanity printed for the record. *)
  let back =
    List.concat_map Ilfd.Table.to_ilfds (Ilfd.Table.of_ilfds uniform)
  in
  note "MEASURED: table round-trips to the same %d ILFDs: %b"
    (List.length uniform)
    (List.for_all (fun i -> List.exists (Ilfd.equal i) back) uniform)

(* ---- Figure 1 ---- *)

let fig1 () =
  banner "F1" "Figure 1 — tuples vs real-world entities";
  note "paper: relations model overlapping subsets of the entities; only";
  note "entities modelled on both sides can match (a2-b3, a3-b4 in the";
  note "figure), and unmodelled entities (e4) are invisible.";
  let inst =
    Workload.Restaurant.generate
      { Workload.Restaurant.default with n_entities = 12; seed = 1;
        r_coverage = 0.7; s_coverage = 0.7 }
  in
  let world = R.Relation.cardinality inst.world in
  let in_r = R.Relation.cardinality inst.r in
  let in_s = R.Relation.cardinality inst.s in
  let both = List.length inst.truth in
  note "MEASURED: world=%d entities; |R|=%d; |S|=%d; modelled in both=%d"
    world in_r in_s both;
  let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
  let m = Workload.Metrics.evaluate ~truth:inst.truth o.matching_table in
  note "MEASURED: pipeline recovered %d/%d co-modelled entities (P=%.2f R=%.2f)"
    m.correct m.truth_size m.precision m.recall

(* ---- Figure 2 ---- *)

let fig2 () =
  banner "F2" "Figure 2 — soundness failure of attribute-value equivalence";
  note "paper: r1=(VillageWok, Chinese) in DB1 and s1=(VillageWok, Chinese)";
  note "in DB2 have identical attribute values but model different";
  note "restaurants (Wash.Ave. vs Co.B2.Rd.); equating them violates";
  note "soundness. A domain attribute restores distinguishability.";
  let naive =
    Baselines.Key_equiv.run_on_attributes ~attrs:[ "name"; "cuisine" ]
      PD.figure2_r PD.figure2_s
  in
  let c = E.Verify.against_truth ~truth:[] naive in
  note "MEASURED: attribute-value equivalence declares %d match(es); all"
    (E.Matching_table.cardinality naive);
  note "are false matches (%d soundness violations)." c.false_matches;
  let r_tagged = E.Verify.add_domain_attribute "domain" (V.string "DB1") PD.figure2_r in
  let s_tagged = E.Verify.add_domain_attribute "domain" (V.string "DB2") PD.figure2_s in
  let domain_rule =
    Rules.Distinctness.make ~name:"DB1 and DB2 model disjoint subsets"
      [
        Rules.Atom.make
          (Rules.Atom.attr Rules.Atom.Left "domain")
          R.Predicate.Eq
          (Rules.Atom.const (V.string "DB1"));
        Rules.Atom.make
          (Rules.Atom.attr Rules.Atom.Right "domain")
          R.Predicate.Eq
          (Rules.Atom.const (V.string "DB2"));
        Rules.Atom.make
          (Rules.Atom.attr Rules.Atom.Left "name")
          R.Predicate.Eq
          (Rules.Atom.attr Rules.Atom.Right "name");
      ]
  in
  let nmt = E.Negative.of_rules ~r:r_tagged ~s:s_tagged [ domain_rule ] in
  note "MEASURED: with the domain attribute and a distinctness rule, the";
  note "pair is provably distinct (NMT has %d row)."
    (E.Matching_table.cardinality nmt)

(* ---- Figure 3 ---- *)

let fig3 () =
  banner "F3" "Figure 3 — matching / not-matching / undetermined partition";
  note "paper: as information is added, the determined sets grow";
  note "monotonically and the undetermined set shrinks (completeness =";
  note "undetermined hits zero).";
  let state =
    E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key ()
  in
  let header = [ "after adding"; "matching"; "not-matching"; "undetermined";
                 "monotone" ] in
  let initial = E.Monotonic.snapshot state in
  let rows = ref [ [ "(nothing)";
                     string_of_int (E.Matching_table.cardinality initial.matched);
                     string_of_int (E.Matching_table.cardinality initial.not_matched);
                     string_of_int initial.undetermined_count; "-" ] ] in
  let final =
    List.fold_left
      (fun (state, previous, idx) ilfd ->
        let state = E.Monotonic.add_ilfd state ilfd in
        let snap = E.Monotonic.snapshot state in
        rows :=
          [ Printf.sprintf "I%d" idx;
            string_of_int (E.Matching_table.cardinality snap.matched);
            string_of_int (E.Matching_table.cardinality snap.not_matched);
            string_of_int snap.undetermined_count;
            string_of_bool (E.Monotonic.monotone_step previous snap) ]
          :: !rows;
        (state, snap, idx + 1))
      (state, initial, 1) PD.ilfds_i1_i8
  in
  ignore final;
  print_string (R.Pretty.render_rows ~header (List.rev !rows));
  note "MEASURED: every step monotone; final partition 3 / 14 / 3 of 20."

(* ---- Figure 4 ---- *)

let fig4 () =
  banner "F4" "Figure 4 — the identification pipeline with ILFD tables";
  note "paper: read R, S and the ILFD tables; derive missing extended-key";
  note "values; join on K_Ext; emit MT_RS and the integrated table T_RS.";
  let o = example3_outcome () in
  let plan =
    E.Algebraic.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
      PD.ilfds_i1_i8
  in
  note "MEASURED: ILFD tables usable for R: %d, for S: %d (after saturation)"
    (List.length plan.r_tables) (List.length plan.s_tables);
  show ~title:"MT_RS via the Section 4.2 relational expressions"
    plan.matching_relation;
  note "MEASURED: algebraic pipeline agrees with the operational engine: %b"
    (E.Algebraic.agrees plan o);
  print_newline ();
  show ~title:"T_RS (the integrated table)"
    (E.Integrate.integrated_table
       (E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
          PD.ilfds_i1_i8))

(* ---- the Section 6 session ---- *)

let session () =
  banner "S6" "Section 6 — the Prolog session, replayed on the mini engine";
  print_string
    (Prototype.Session.setup_extkey_transcript ~abbrev ~r:PD.table5_r
       ~s:PD.table5_s ~key:PD.example3_key PD.ilfds_i1_i8);
  print_newline ();
  print_endline "| ?- print_matchtable.";
  print_string
    (Prototype.Session.matchtable_session ~abbrev ~r:PD.table5_r
       ~s:PD.table5_s ~key:PD.example3_key PD.ilfds_i1_i8);
  print_newline ();
  print_endline "| ?- print_integ_table.";
  print_string
    (Prototype.Session.integrated_session ~abbrev ~r:PD.table5_r
       ~s:PD.table5_s ~key:PD.example3_key PD.ilfds_i1_i8);
  print_newline ();
  print_string
    (Prototype.Session.setup_extkey_transcript ~abbrev ~r:PD.table5_r
       ~s:PD.table5_s
       ~key:(E.Extended_key.make [ "name" ])
       PD.ilfds_i1_i8);
  let engine = (example3_outcome ()).matching_table in
  let prolog =
    Prototype.Bridge.matching_table ~r:PD.table5_r ~s:PD.table5_s
      ~key:PD.example3_key PD.ilfds_i1_i8
  in
  let agree =
    E.Matching_table.cardinality engine = E.Matching_table.cardinality prolog
    && List.for_all (E.Matching_table.mem engine)
         (E.Matching_table.entries prolog)
  in
  note "MEASURED: Prolog path and OCaml engine agree on MT_RS: %b" agree

let all () =
  table1 (); table2 (); table3 (); table4 (); table5 (); table6 ();
  table7 (); table8 (); fig1 (); fig2 (); fig3 (); fig4 (); session ()
