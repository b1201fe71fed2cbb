(* Cross-library integration tests: the OCaml engine vs the Prolog
   prototype on the same programs, CSV-to-integrated-table flows, the
   session renderer against the paper's Section 6 output, and semantic
   invariances (minimal cover and saturation preserve the matching
   table). *)

module R = Relational
module V = R.Value
module E = Entity_id
module PD = Workload.Paper_data
open Helpers

let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* ---- engine vs Prolog prototype ---- *)

let bridge_tests =
  [
    case "Example 2: engine and Prolog agree" (fun () ->
        let engine =
          (E.Identify.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
             [ PD.example2_ilfd ])
            .matching_table
        in
        let prolog =
          Prototype.Bridge.matching_table ~r:PD.table2_r ~s:PD.table2_s
            ~key:PD.example2_key [ PD.example2_ilfd ]
        in
        Alcotest.(check bool) "" true (mt_entries_equal engine prolog));
    case "Example 3: engine and Prolog agree" (fun () ->
        let engine =
          (E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
             PD.ilfds_i1_i8)
            .matching_table
        in
        let prolog =
          Prototype.Bridge.matching_table ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        Alcotest.(check int) "3 matches" 3
          (E.Matching_table.cardinality prolog);
        Alcotest.(check bool) "" true (mt_entries_equal engine prolog));
    qtest ~count:8 "random instances: engine and Prolog agree"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let inst =
          Workload.Restaurant.generate
            {
              Workload.Restaurant.default with
              n_entities = 15;
              seed;
              homonym_rate = 0.2;
              entity_ilfd_coverage = 0.7;
            }
        in
        let engine =
          (E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
            .matching_table
        in
        let prolog =
          Prototype.Bridge.matching_table ~r:inst.r ~s:inst.s ~key:inst.key
            inst.ilfds
        in
        mt_entries_equal engine prolog);
    case "chain workload through Prolog (recursive rules)" (fun () ->
        let inst =
          Workload.Chain.generate
            { Workload.Chain.default with n_entities = 6; depth = 3 }
        in
        let engine =
          (E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
            .matching_table
        in
        let prolog =
          Prototype.Bridge.matching_table ~r:inst.r ~s:inst.s ~key:inst.key
            inst.ilfds
        in
        Alcotest.(check bool) "" true (mt_entries_equal engine prolog));
  ]

(* ---- session fidelity ---- *)

let abbrev =
  [ ("cuisine", "cui"); ("speciality", "spec"); ("street", "str");
    ("county", "cty") ]

let session_tests =
  [
    case "matchtable session carries the paper's three rows" (fun () ->
        let out =
          Prototype.Session.matchtable_session ~abbrev ~r:PD.table5_r
            ~s:PD.table5_s ~key:PD.example3_key PD.ilfds_i1_i8
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains out needle))
          [ "matching table"; "r_name"; "r_cui"; "s_name"; "s_spec";
            "anjuman"; "mughalai"; "it_sgreek"; "gyros"; "twincities";
            "hunan" ]);
    case "integrated session shows nulls and merged rows" (fun () ->
        let out =
          Prototype.Session.integrated_session ~abbrev ~r:PD.table5_r
            ~s:PD.table5_s ~key:PD.example3_key PD.ilfds_i1_i8
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains out needle))
          [ "integrated table"; "villagewok"; "null"; "sichuan";
            "roseville"; "hennepin" ]);
    case "verification message matches the paper's wording" (fun () ->
        let good =
          Prototype.Session.setup_extkey_transcript ~abbrev ~r:PD.table5_r
            ~s:PD.table5_s ~key:PD.example3_key PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "verified" true
          (contains good "Message: The extended key is verified.");
        let bad =
          Prototype.Session.setup_extkey_transcript ~abbrev ~r:PD.table5_r
            ~s:PD.table5_s
            ~key:(E.Extended_key.make [ "name" ])
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "warning" true
          (contains bad
             "Message: The extended key causes unsound matching result."));
  ]

(* ---- CSV end-to-end ---- *)

let csv_flow_tests =
  [
    case "CSV to integrated table" (fun () ->
        let r =
          R.Csv_io.relation_of_string
            ~keys:[ [ "name"; "cuisine" ] ]
            "name,cuisine,street\n\
             TwinCities,Chinese,Wash.Ave.\n\
             TwinCities,Indian,Univ.Ave.\n"
        in
        let s =
          R.Csv_io.relation_of_string
            ~keys:[ [ "name"; "speciality" ] ]
            "name,speciality,city\nTwinCities,Mughalai,St. Paul\n"
        in
        let key = E.Extended_key.make [ "name"; "cuisine" ] in
        let res =
          E.Identify.matched ~r ~s ~key
            [ Ilfd.parse "speciality = Mughalai -> cuisine = Indian" ]
        in
        Alcotest.(check int) "one match" 1
          (E.Matching_table.cardinality (E.Identify.matching_table res));
        let t = E.Integrate.integrated_table res in
        Alcotest.(check int) "two rows" 2 (R.Relation.cardinality t));
    case "integrated table survives CSV round-trip" (fun () ->
        let t =
          E.Integrate.integrated_table
            (E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key PD.ilfds_i1_i8)
        in
        let round = R.Csv_io.relation_of_string (R.Csv_io.to_string t) in
        Alcotest.(check bool) "" true (R.Relation.equal t round));
  ]

(* ---- semantic invariances ---- *)

let invariance_tests =
  [
    case "minimal cover preserves the matching table" (fun () ->
        let cover = Ilfd.Theory.minimal_cover PD.ilfds_i1_i8 in
        let original =
          (E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
             PD.ilfds_i1_i8)
            .matching_table
        in
        let covered =
          (E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
             cover)
            .matching_table
        in
        Alcotest.(check bool) "" true (mt_entries_equal original covered));
    case "saturation preserves the matching table" (fun () ->
        let saturated = Ilfd.Theory.saturate PD.ilfds_i1_i8 in
        let original =
          (E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
             PD.ilfds_i1_i8)
            .matching_table
        in
        let sat =
          (E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
             saturated)
            .matching_table
        in
        Alcotest.(check bool) "" true (mt_entries_equal original sat));
    case "ILFD order does not change Example 3's result" (fun () ->
        (* The paper's rule set is conflict-free, so cut semantics are
           order-insensitive here. *)
        let reversed = List.rev PD.ilfds_i1_i8 in
        let a =
          (E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
             PD.ilfds_i1_i8)
            .matching_table
        in
        let b =
          (E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
             reversed)
            .matching_table
        in
        Alcotest.(check bool) "" true (mt_entries_equal a b));
    qtest ~count:10 "three pipelines agree on random instances"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 12; seed }
        in
        let engine =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let algebraic =
          E.Algebraic.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let prolog =
          Prototype.Bridge.matching_table ~r:inst.r ~s:inst.s ~key:inst.key
            inst.ilfds
        in
        E.Algebraic.agrees algebraic engine
        && mt_entries_equal engine.matching_table prolog);
  ]

(* ---- bridge internals ---- *)

let bridge_unit_tests =
  [
    case "facts are binary predicates with tuple ids" (fun () ->
        let facts =
          Prototype.Bridge.facts_of_relation ~prefix:"r" PD.table2_s
        in
        (* 3 attributes x 1 tuple. *)
        Alcotest.(check int) "" 3 (List.length facts);
        match facts with
        | { Prolog.Database.head =
              Prolog.Term.Compound ("r_name", [ Prolog.Term.Atom id; _ ]);
            body = [] }
          :: _ ->
            Alcotest.(check string) "" "r1" id
        | _ -> Alcotest.fail "unexpected fact shape");
    case "NULL cells produce no fact" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a"; "b" ])
            [ [ v "x"; R.Value.Null ] ]
        in
        Alcotest.(check int) "" 1
          (List.length (Prototype.Bridge.facts_of_relation ~prefix:"r" r)));
    case "ILFD rules end in a cut" (fun () ->
        let rules =
          Prototype.Bridge.rules_of_ilfds ~prefix:"s" [ PD.example2_ilfd ]
        in
        match rules with
        | [ { Prolog.Database.body; _ } ] -> (
            match List.rev body with
            | Prolog.Term.Atom "!" :: _ -> ()
            | _ -> Alcotest.fail "no trailing cut")
        | _ -> Alcotest.fail "one rule expected");
    case "null defaults close the extended predicates" (fun () ->
        match Prototype.Bridge.null_defaults ~prefix:"r" [ "speciality" ] with
        | [ { Prolog.Database.head =
                Prolog.Term.Compound ("r_speciality", [ _; Prolog.Term.Atom "null" ]);
              body = [] } ] ->
            ()
        | _ -> Alcotest.fail "unexpected default shape");
    case "sanitize matches the session's atom style" (fun () ->
        Alcotest.(check string) "" "co_b2"
          (Prototype.Bridge.sanitize_string "Co.B2");
        Alcotest.(check string) "" "it_sgreek"
          (Prototype.Bridge.sanitize_string "It'sGreek"));
    case "matchtable rule binds base attributes first" (fun () ->
        let clause =
          Prototype.Bridge.matchtable_clause ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key
        in
        (* The first R-side goal must be over a base attribute of R
           (cuisine/name/street), never the derived speciality. *)
        let first_r_goal =
          List.find_map
            (function
              | Prolog.Term.Compound (p, _)
                when String.length p > 2 && String.sub p 0 2 = "r_" ->
                  Some p
              | _ -> None)
            clause.Prolog.Database.body
        in
        match first_r_goal with
        | Some ("r_speciality" | "r_county") ->
            Alcotest.fail "derived predicate called before base facts"
        | Some _ -> ()
        | None -> Alcotest.fail "no r-side goal");
  ]

let () =
  Alcotest.run "integration"
    [
      ("bridge", bridge_tests);
      ("bridge-unit", bridge_unit_tests);
      ("session", session_tests);
      ("csv-flow", csv_flow_tests);
      ("invariance", invariance_tests);
    ]
