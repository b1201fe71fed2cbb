(* Tests for the extension layer: aggregation, hash indexes, the
   incremental (federated-update) engine, and ILFD mining. *)

module R = Relational
module V = R.Value
module E = Entity_id
module PD = Workload.Paper_data
open Helpers

let case name f = Alcotest.test_case name `Quick f

(* ---- Aggregate ---- *)

let sales =
  R.Relation.create
    (R.Schema.of_names [ "region"; "rep"; "amount" ])
    [
      [ v "west"; v "ann"; vi 10 ];
      [ v "west"; v "bob"; vi 30 ];
      [ v "east"; v "cal"; vi 20 ];
      [ v "east"; v "cal"; vi 25 ];
      [ v "east"; v "dee"; V.Null ];
    ]

let aggregate_tests =
  [
    case "group_by count and sum" (fun () ->
        let out =
          R.Aggregate.group_by ~by:[ "region" ]
            [ ("n", R.Aggregate.Count); ("total", R.Aggregate.Sum "amount") ]
            sales
        in
        Alcotest.(check int) "groups" 2 (R.Relation.cardinality out);
        let schema = R.Relation.schema out in
        let east =
          Option.get
            (R.Relation.find_opt
               (fun t -> V.to_string (R.Tuple.get schema t "region") = "east")
               out)
        in
        Alcotest.(check string) "count east" "3"
          (V.to_string (R.Tuple.get schema east "n"));
        Alcotest.(check string) "sum east skips null" "45"
          (V.to_string (R.Tuple.get schema east "total")));
    case "count_distinct and min/max" (fun () ->
        let out =
          R.Aggregate.group_by ~by:[ "region" ]
            [
              ("reps", R.Aggregate.Count_distinct "rep");
              ("lo", R.Aggregate.Min "amount");
              ("hi", R.Aggregate.Max "amount");
            ]
            sales
        in
        let schema = R.Relation.schema out in
        let east =
          Option.get
            (R.Relation.find_opt
               (fun t -> V.to_string (R.Tuple.get schema t "region") = "east")
               out)
        in
        Alcotest.(check string) "distinct reps" "2"
          (V.to_string (R.Tuple.get schema east "reps"));
        Alcotest.(check string) "min" "20"
          (V.to_string (R.Tuple.get schema east "lo"));
        Alcotest.(check string) "max" "25"
          (V.to_string (R.Tuple.get schema east "hi")));
    case "empty by-list aggregates whole relation" (fun () ->
        let out =
          R.Aggregate.group_by ~by:[] [ ("n", R.Aggregate.Count) ] sales
        in
        Alcotest.(check int) "" 1 (R.Relation.cardinality out));
    check_raises_any "sum over strings rejected" (fun () ->
        R.Aggregate.group_by ~by:[] [ ("s", R.Aggregate.Sum "rep") ] sales);
    case "distinct_values sorted, null-free" (fun () ->
        Alcotest.(check (list string)) "" [ "10"; "20"; "25"; "30" ]
          (List.map V.to_string (R.Aggregate.distinct_values sales "amount")));
  ]

(* ---- Index ---- *)

let index_tests =
  [
    case "lookup finds all matches in order" (fun () ->
        let idx = R.Index.build sales [ "region" ] in
        Alcotest.(check int) "" 3 (List.length (R.Index.lookup idx [ v "east" ]));
        Alcotest.(check int) "" 0 (List.length (R.Index.lookup idx [ v "north" ])));
    case "null keys are not indexed nor found" (fun () ->
        let idx = R.Index.build sales [ "amount" ] in
        Alcotest.(check int) "4 of 5 indexed" 4 (R.Index.cardinality idx);
        Alcotest.(check int) "" 0 (List.length (R.Index.lookup idx [ V.Null ])));
    case "index agrees with selection" (fun () ->
        let idx = R.Index.build sales [ "rep" ] in
        let by_index = R.Index.lookup idx [ v "cal" ] in
        let by_scan =
          R.Relation.tuples
            (R.Algebra.select (R.Predicate.eq "rep" (v "cal")) sales)
        in
        Alcotest.(check int) "" (List.length by_scan) (List.length by_index));
    case "add extends the index" (fun () ->
        let idx = R.Index.build sales [ "region" ] in
        let t =
          R.Tuple.make (R.Relation.schema sales) [ v "north"; v "eve"; vi 5 ]
        in
        let idx = R.Index.add idx t in
        Alcotest.(check int) "" 1
          (List.length (R.Index.lookup idx [ v "north" ])));
    case "multi-attribute key" (fun () ->
        let idx = R.Index.build sales [ "region"; "rep" ] in
        Alcotest.(check int) "" 2
          (List.length (R.Index.lookup idx [ v "east"; v "cal" ])));
  ]

(* ---- Incremental ---- *)

let incremental_tests =
  [
    case "initial state equals batch" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let batch =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" true
          (mt_entries_equal
             (E.Incremental.matching_table t)
             batch.matching_table));
    case "insertion creating a match reports it" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        (* An S tuple matching the so-far-unmatched TwinCities/Indian R
           tuple: its cuisine derives to Indian via I4. *)
        let s_tuple =
          R.Tuple.make
            (R.Relation.schema PD.table5_s)
            [ v "TwinCities"; v "Mughalai"; v "Dakota" ]
        in
        (* R(TwinCities, Indian) has NULL speciality; the match needs the
           R side too. Add the entity rule first. *)
        let t =
          E.Incremental.add_ilfd t
            (Ilfd.parse
               "name = TwinCities & street = Co.B3 -> speciality = Mughalai")
        in
        let t, created = E.Incremental.insert_s t s_tuple in
        Alcotest.(check int) "one new match" 1 (List.length created);
        Alcotest.(check int) "" 4
          (E.Matching_table.cardinality (E.Incremental.matching_table t)));
    case "insertion with underivable key attrs matches nothing" (fun () ->
        let telemetry = Telemetry.create () in
        let t =
          E.Incremental.create ~telemetry ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        (* Example 3 ships two R tuples whose speciality no ILFD reaches
           (the TwinCities Indian/Vietnamese rows) — the initial batch
           accounting must already show them. *)
        let before_r = List.length (E.Incremental.unmatched_r t) in
        Alcotest.(check int) "initial unmatched_r" 2 before_r;
        Alcotest.(check int) "initial unmatched_s" 0
          (List.length (E.Incremental.unmatched_s t));
        let r_tuple =
          R.Tuple.make
            (R.Relation.schema PD.table5_r)
            [ v "Mystery"; v "Fusion"; v "Nowhere.St." ]
        in
        let t, created = E.Incremental.insert_r t r_tuple in
        Alcotest.(check int) "" 0 (List.length created);
        Alcotest.(check int) "table unchanged" 3
          (E.Matching_table.cardinality (E.Incremental.matching_table t));
        (* No ILFD derives its speciality, so its K_Ext stays NULL: the
           tuple must surface in the unmatched accounting, not vanish. *)
        Alcotest.(check int) "one more unmatched R tuple" (before_r + 1)
          (List.length (E.Incremental.unmatched_r t));
        Alcotest.(check int) "unmatched_s untouched" 0
          (List.length (E.Incremental.unmatched_s t));
        Alcotest.(check int) "null_key counter" 1
          (Telemetry.counter telemetry "incremental.null_key");
        Alcotest.(check int) "inserts counter" 1
          (Telemetry.counter telemetry "incremental.inserts");
        Alcotest.(check int) "pairs_added counter" 0
          (Telemetry.counter telemetry "incremental.pairs_added"));
    check_raises_any "key violation surfaces on insert" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        (* (TwinCities, Chinese) already exists with that key. *)
        E.Incremental.insert_r t
          (R.Tuple.make
             (R.Relation.schema PD.table5_r)
             [ v "TwinCities"; v "Chinese"; v "Elsewhere" ]));
    case "add_ilfd is monotone" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key
            (List.filteri (fun i _ -> i < 4) PD.ilfds_i1_i8)
        in
        let before = E.Incremental.matching_table t in
        let t =
          List.fold_left E.Incremental.add_ilfd t
            (List.filteri (fun i _ -> i >= 4) PD.ilfds_i1_i8)
        in
        let after = E.Incremental.matching_table t in
        Alcotest.(check bool) "before subset of after" true
          (List.for_all
             (E.Matching_table.mem after)
             (E.Matching_table.entries before));
        Alcotest.(check int) "" 3 (E.Matching_table.cardinality after));
    qtest ~count:10 "random insert order equals batch"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        (* NULL streets leave some specialities underivable, so the
           NULL-key (unmatched) accounting is non-trivially exercised. *)
        let inst =
          Workload.Restaurant.generate
            {
              Workload.Restaurant.default with
              n_entities = 20;
              null_street_rate = 0.25;
              seed;
            }
        in
        (* Start empty, stream all tuples in, compare with batch. *)
        let empty_r =
          R.Relation.empty (R.Relation.schema inst.r)
            ~keys:(R.Relation.declared_keys inst.r) ()
        in
        let empty_s =
          R.Relation.empty (R.Relation.schema inst.s)
            ~keys:(R.Relation.declared_keys inst.s) ()
        in
        let t =
          E.Incremental.create ~r:empty_r ~s:empty_s ~key:inst.key inst.ilfds
        in
        let t =
          List.fold_left
            (fun t tuple -> fst (E.Incremental.insert_r t tuple))
            t (R.Relation.tuples inst.r)
        in
        let t =
          List.fold_left
            (fun t tuple -> fst (E.Incremental.insert_s t tuple))
            t (R.Relation.tuples inst.s)
        in
        let batch =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        (* The NULL-key accounting must agree tuple-for-tuple, not just
           the matches. *)
        mt_entries_equal
          (E.Incremental.matching_table t)
          batch.matching_table
        && E.Incremental.unmatched_r t = batch.unmatched_r
        && E.Incremental.unmatched_s t = batch.unmatched_s);
    qtest ~count:10 "exact duplicate inserts are no-ops"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let inst =
          Workload.Restaurant.generate
            {
              Workload.Restaurant.default with
              n_entities = 20;
              null_street_rate = 0.25;
              seed;
            }
        in
        let empty rel =
          R.Relation.empty (R.Relation.schema rel)
            ~keys:(R.Relation.declared_keys rel) ()
        in
        (* Every third row goes in twice in a row, and once more after
           the other side is complete: a copy must neither probe for
           partners again nor join the unmatched accounting again. *)
        let again insert t tuples =
          List.fold_left
            (fun (t, ok) tuple ->
              let t', created = insert t tuple in
              (t', ok && t' == t && created = []))
            (t, true)
            (List.filteri (fun i _ -> i mod 3 = 0) tuples)
        in
        let stream insert t tuples =
          List.fold_left
            (fun (t, ok) tuple ->
              let t, _ = insert t tuple in
              let t', created = insert t tuple in
              (t', ok && t' == t && created = []))
            (t, true) tuples
        in
        let rows = R.Relation.tuples inst.r and srows = R.Relation.tuples inst.s in
        let t =
          E.Incremental.create ~r:(empty inst.r) ~s:(empty inst.s)
            ~key:inst.key inst.ilfds
        in
        let t, ok1 = stream E.Incremental.insert_r t rows in
        let t, ok2 = stream E.Incremental.insert_s t srows in
        let t, ok3 = again E.Incremental.insert_r t rows in
        let t, ok4 = again E.Incremental.insert_s t srows in
        let batch =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let o = E.Incremental.outcome t in
        ok1 && ok2 && ok3 && ok4
        && mt_entries_equal o.matching_table batch.matching_table
        && List.length o.pairs = List.length batch.pairs
        && List.length (E.Incremental.entries t) = List.length batch.pairs
        && List.equal R.Tuple.equal
             (R.Relation.tuples o.r_extended)
             (R.Relation.tuples batch.r_extended)
        && List.equal R.Tuple.equal
             (R.Relation.tuples o.s_extended)
             (R.Relation.tuples batch.s_extended)
        && R.Relation.cardinality (E.Incremental.r t)
           = R.Relation.cardinality inst.r
        && E.Incremental.unmatched_r t = batch.unmatched_r
        && E.Incremental.unmatched_s t = batch.unmatched_s);
    case "outcome integrates like batch" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let o = E.Incremental.outcome t in
        let table = E.Integrate.integrated_table ~key:PD.example3_key o in
        Alcotest.(check int) "" 6 (R.Relation.cardinality table));
    case "first-rule mode inserts through disagreeing rules" (fun () ->
        let t =
          E.Incremental.create
            ~r:(relation [ "name" ] [ [ "name" ] ] [])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ]
                  [ [ "alpha"; "first" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = first";
              Ilfd.parse "name = alpha -> cuisine = second";
            ]
        in
        let r_tuple =
          R.Tuple.make (R.Schema.of_names [ "name" ]) [ v "alpha" ]
        in
        (* Cut semantics: the first rule wins, deriving cuisine=first and
           matching the S tuple. *)
        let _, created = E.Incremental.insert_r t r_tuple in
        Alcotest.(check int) "" 1 (List.length created));
    check_raises_any "check-conflicts mode raises on a conflicting insert"
      (fun () ->
        (* Regression: this insert used to die on [assert false] instead
           of reporting the conflict. *)
        let t =
          E.Incremental.create ~mode:Ilfd.Apply.Check_conflicts
            ~r:(relation [ "name" ] [ [ "name" ] ] [])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ]
                  [ [ "alpha"; "first" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = first";
              Ilfd.parse "name = alpha -> cuisine = second";
            ]
        in
        let r_tuple =
          R.Tuple.make (R.Schema.of_names [ "name" ]) [ v "alpha" ]
        in
        ignore (E.Incremental.insert_r t r_tuple));
    case "check-conflicts mode accepts agreeing rules" (fun () ->
        let t =
          E.Incremental.create ~mode:Ilfd.Apply.Check_conflicts
            ~r:(relation [ "name" ] [ [ "name" ] ] [])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ]
                  [ [ "alpha"; "same" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = same";
              Ilfd.parse "name = alpha -> cuisine = same";
            ]
        in
        let r_tuple =
          R.Tuple.make (R.Schema.of_names [ "name" ]) [ v "alpha" ]
        in
        let _, created = E.Incremental.insert_r t r_tuple in
        Alcotest.(check int) "" 1 (List.length created));
    check_raises_any "check-conflicts mode survives add_ilfd" (fun () ->
        (* The mode must be preserved when the knowledge base grows: the
           recreate inside add_ilfd re-derives under Check_conflicts and
           hits the disagreement. *)
        let t =
          E.Incremental.create ~mode:Ilfd.Apply.Check_conflicts
            ~r:(relation [ "name" ] [ [ "name" ] ] [ [ "alpha" ] ])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ] [])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [ Ilfd.parse "name = alpha -> cuisine = first" ]
        in
        ignore
          (E.Incremental.add_ilfd t
             (Ilfd.parse "name = alpha -> cuisine = second")));
    case "outcome collapses rows derivation made equal, with no key"
      (fun () ->
        (* With no declared key, [a = x -> b = v] fills (x, NULL) into a
           copy of (x, v): the batch extension keeps one row, and so must
           the incremental outcome. *)
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a"; "b" ])
            [ [ R.Value.string "x"; R.Value.Null ];
              [ R.Value.string "x"; R.Value.string "v" ] ]
        in
        let s = relation [ "a"; "b" ] [] [ [ "x"; "v" ] ] in
        let key = E.Extended_key.make [ "a"; "b" ] in
        let ilfds = [ Ilfd.parse "a = x -> b = v" ] in
        let o =
          E.Incremental.outcome (E.Incremental.create ~r ~s ~key ilfds)
        in
        let batch = E.Identify.run ~r ~s ~key ilfds in
        Alcotest.(check int) "one row" 1 (R.Relation.cardinality o.r_extended);
        Alcotest.(check bool) "as batch" true
          (R.Relation.equal o.r_extended batch.r_extended));
  ]

(* ---- Mine ---- *)

let mine_tests =
  [
    case "mines the exact speciality->cuisine map" (fun () ->
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 80; seed = 9 }
        in
        let mined =
          Ilfd.Mine.mine ~min_support:1 inst.world ~lhs:[ "speciality" ]
            ~rhs:"cuisine"
        in
        Alcotest.(check bool) "all exact" true
          (List.for_all (fun c -> c.Ilfd.Mine.confidence = 1.0) mined);
        (* Every mined rule is consistent with the hidden map. *)
        Alcotest.(check bool) "consistent with pool" true
          (List.for_all
             (fun (c : Ilfd.Mine.candidate) ->
               match Ilfd.antecedent c.ilfd, Ilfd.consequent c.ilfd with
               | [ a ], [ b ] ->
                   Array.exists
                     (fun (sp, cu) ->
                       V.equal a.value (v sp) && V.equal b.value (v cu))
                     Workload.Pools.speciality_cuisine
               | _ -> false)
             mined));
    case "min_support filters rare patterns" (fun () ->
        (* Relations are sets, so an id column keeps support > 1. *)
        let r =
          relation [ "id"; "a"; "b" ] []
            [ [ "r1"; "x"; "1" ]; [ "r2"; "x"; "1" ]; [ "r3"; "y"; "2" ] ]
        in
        let all = Ilfd.Mine.mine ~min_support:1 r ~lhs:[ "a" ] ~rhs:"b" in
        let frequent = Ilfd.Mine.mine ~min_support:2 r ~lhs:[ "a" ] ~rhs:"b" in
        Alcotest.(check int) "" 2 (List.length all);
        Alcotest.(check int) "" 1 (List.length frequent));
    case "confidence below 1 excluded by default" (fun () ->
        let r =
          relation [ "id"; "a"; "b" ] []
            [ [ "r1"; "x"; "1" ]; [ "r2"; "x"; "1" ]; [ "r3"; "x"; "2" ] ]
        in
        Alcotest.(check int) "" 0
          (List.length (Ilfd.Mine.mine r ~lhs:[ "a" ] ~rhs:"b"));
        match Ilfd.Mine.mine ~min_confidence:0.6 r ~lhs:[ "a" ] ~rhs:"b" with
        | [ c ] ->
            Alcotest.(check bool) "majority value" true
              (Float.abs (c.confidence -. (2.0 /. 3.0)) < 1e-9)
        | _ -> Alcotest.fail "one candidate expected");
    case "nulls are ignored" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a"; "b" ])
            [ [ v "x"; V.Null ]; [ v "x"; v "1" ]; [ V.Null; v "2" ] ]
        in
        match Ilfd.Mine.mine ~min_support:1 r ~lhs:[ "a" ] ~rhs:"b" with
        | [ c ] -> Alcotest.(check int) "" 1 c.support
        | _ -> Alcotest.fail "one candidate expected");
    case "multi-attribute antecedents" (fun () ->
        let r =
          relation [ "a"; "b"; "c" ] []
            [ [ "x"; "1"; "p" ]; [ "x"; "2"; "q" ]; [ "x"; "1"; "p" ] ]
        in
        let mined =
          Ilfd.Mine.mine ~min_support:1 r ~lhs:[ "a"; "b" ] ~rhs:"c"
        in
        Alcotest.(check int) "" 2 (List.length mined));
    case "mine_pairs covers the schema" (fun () ->
        let r = relation [ "a"; "b" ] [] [ [ "x"; "1" ]; [ "y"; "2" ] ] in
        let mined = Ilfd.Mine.mine_pairs ~min_support:1 r in
        (* a->b and b->a, one rule per distinct value on each side. *)
        Alcotest.(check int) "" 4 (List.length mined));
    case "validate against a second relation" (fun () ->
        let train = relation [ "a"; "b" ] [] [ [ "x"; "1" ] ] in
        let test_consistent = relation [ "a"; "b" ] [] [ [ "x"; "1" ] ] in
        let test_violating = relation [ "a"; "b" ] [] [ [ "x"; "2" ] ] in
        match Ilfd.Mine.mine ~min_support:1 train ~lhs:[ "a" ] ~rhs:"b" with
        | [ c ] ->
            Alcotest.(check bool) "" true
              (Ilfd.Mine.validate test_consistent c);
            Alcotest.(check bool) "" false
              (Ilfd.Mine.validate test_violating c)
        | _ -> Alcotest.fail "one candidate expected");
    case "identification with exactly-mined rules is sound" (fun () ->
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 60; seed = 17 }
        in
        let mined =
          Ilfd.Mine.exact
            (Ilfd.Mine.mine ~min_support:1 inst.world ~lhs:[ "speciality" ]
               ~rhs:"cuisine"
            @ Ilfd.Mine.mine ~min_support:1 inst.world
                ~lhs:[ "name"; "street" ] ~rhs:"speciality")
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key mined in
        let m = Workload.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision);
  ]

(* ---- Align ---- *)

let align_tests =
  [
    case "rename resolves synonyms" (fun () ->
        let r = relation [ "rest_name" ] [ [ "rest_name" ] ] [ [ "X" ] ] in
        let out =
          E.Align.apply
            [ E.Align.Rename { from_attr = "rest_name"; to_attr = "name" } ]
            r
        in
        Alcotest.(check (list string)) "" [ "name" ]
          (R.Schema.names (R.Relation.schema out));
        Alcotest.(check (list (list string))) "key follows" [ [ "name" ] ]
          (R.Relation.keys out));
    case "map converts units, skips NULL" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "yen" ])
            [ [ vi 1000 ]; [ V.Null ] ]
        in
        let out =
          E.Align.apply
            [ E.Align.Map
                { from_attr = "yen"; to_attr = "usd";
                  f = E.Align.scale_float 0.007 } ]
            r
        in
        let values =
          List.map
            (fun t -> R.Tuple.nth t 0)
            (R.Relation.tuples out)
        in
        Alcotest.(check bool) "scaled" true
          (List.exists (fun x -> V.eq3 x (R.Value.float 7.0) = V.True) values);
        Alcotest.(check bool) "null kept" true
          (List.exists V.is_null values));
    case "combine merges split names and drops sources" (fun () ->
        let r =
          relation [ "last"; "first"; "age" ] []
            [ [ "Smith"; "Jo"; "44" ] ]
        in
        let out =
          E.Align.apply
            [ E.Align.Combine
                { from_attrs = [ "first"; "last" ]; to_attr = "name";
                  f = E.Align.concat_strings " " } ]
            r
        in
        Alcotest.(check (list string)) "" [ "age"; "name" ]
          (R.Schema.names (R.Relation.schema out));
        let t = List.hd (R.Relation.tuples out) in
        Alcotest.(check string) "" "Jo Smith"
          (V.to_string (R.Tuple.get (R.Relation.schema out) t "name")));
    case "combine invalidates keys over consumed attrs" (fun () ->
        let r =
          relation [ "last"; "first" ] [ [ "last"; "first" ] ]
            [ [ "Smith"; "Jo" ] ]
        in
        let out =
          E.Align.apply
            [ E.Align.Combine
                { from_attrs = [ "first"; "last" ]; to_attr = "name";
                  f = E.Align.concat_strings " " } ]
            r
        in
        Alcotest.(check (list (list string))) "" []
          (R.Relation.declared_keys out));
    case "drop removes an attribute" (fun () ->
        let r = relation [ "a"; "b" ] [] [ [ "1"; "2" ] ] in
        let out = E.Align.apply [ E.Align.Drop "b" ] r in
        Alcotest.(check (list string)) "" [ "a" ]
          (R.Schema.names (R.Relation.schema out)));
    check_raises_any "scale_float on strings rejected" (fun () ->
        E.Align.scale_float 2.0 (v "oops"));
    case "concat_strings of all NULL is NULL" (fun () ->
        Alcotest.(check bool) "" true
          (V.is_null (E.Align.concat_strings " " [ V.Null; V.Null ])));
  ]

(* ---- Fusion ---- *)

let fusion_outcome =
  E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
    PD.ilfds_i1_i8

let fusion_tests =
  [
    case "fuse yields one row per entity" (fun () ->
        let fused = E.Fusion.fuse fusion_outcome in
        (* 3 merged + 2 R-only + 1 S-only = 6 entities. *)
        Alcotest.(check int) "" 6 (R.Relation.cardinality fused);
        Alcotest.(check (list string)) "union schema"
          [ "name"; "cuisine"; "street"; "speciality"; "county" ]
          (R.Schema.names (R.Relation.schema fused)));
    case "merged rows carry both sides' attributes" (fun () ->
        let fused = E.Fusion.fuse fusion_outcome in
        let schema = R.Relation.schema fused in
        let anjuman =
          Option.get
            (R.Relation.find_opt
               (fun t -> V.to_string (R.Tuple.get schema t "name") = "Anjuman")
               fused)
        in
        Alcotest.(check string) "street from R" "LeSalleAve."
          (V.to_string (R.Tuple.get schema anjuman "street"));
        Alcotest.(check string) "county from S" "Mpls."
          (V.to_string (R.Tuple.get schema anjuman "county")));
    case "conflicts empty on the paper's data" (fun () ->
        Alcotest.(check int) "" 0
          (List.length (E.Fusion.conflicts fusion_outcome)));
    case "conflicting values raise under Prefer_non_null" (fun () ->
        let r = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "111" ] ] in
        let s = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "222" ] ] in
        let key = E.Extended_key.make [ "k" ] in
        let o = E.Identify.run ~r ~s ~key [] in
        Alcotest.(check int) "one conflict" 1
          (List.length (E.Fusion.conflicts o));
        Alcotest.(check bool) "" true
          (match E.Fusion.fuse o with
          | _ -> false
          | exception E.Fusion.Inconsistent { attribute = "phone"; _ } -> true));
    case "policies pick sides" (fun () ->
        let r = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "111" ] ] in
        let s = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "222" ] ] in
        let key = E.Extended_key.make [ "k" ] in
        let o = E.Identify.run ~r ~s ~key [] in
        let value_of fused =
          V.to_string
            (R.Tuple.get
               (R.Relation.schema fused)
               (List.hd (R.Relation.tuples fused))
               "phone")
        in
        Alcotest.(check string) "left" "111"
          (value_of (E.Fusion.fuse ~default:E.Fusion.Prefer_left o));
        Alcotest.(check string) "right" "222"
          (value_of (E.Fusion.fuse ~default:E.Fusion.Prefer_right o));
        Alcotest.(check string) "custom" "111/222"
          (value_of
             (E.Fusion.fuse
                ~overrides:
                  [ ("phone",
                     E.Fusion.Resolve
                       (fun a b ->
                         v (V.to_string a ^ "/" ^ V.to_string b))) ]
                o)));
    case "NULL never conflicts" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "k"; "phone" ])
            ~keys:[ [ "k" ] ]
            [ [ v "e1"; V.Null ] ]
        in
        let s = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "222" ] ] in
        let key = E.Extended_key.make [ "k" ] in
        let o = E.Identify.run ~r ~s ~key [] in
        let fused = E.Fusion.fuse o in
        Alcotest.(check string) "" "222"
          (V.to_string
             (R.Tuple.get
                (R.Relation.schema fused)
                (List.hd (R.Relation.tuples fused))
                "phone")));
  ]

(* ---- Cluster ---- *)

let cluster_tests =
  [
    case "two-database clustering equals pairwise identify" (fun () ->
        let result =
          E.Cluster.integrate ~key:PD.example3_key PD.ilfds_i1_i8
            [ ("r", PD.table5_r); ("s", PD.table5_s) ]
        in
        Alcotest.(check int) "3 clusters" 3 (List.length result.clusters);
        Alcotest.(check int) "no violations" 0
          (List.length result.violations);
        Alcotest.(check bool) "pairwise consistent" true
          (E.Cluster.pairwise_consistent ~key:PD.example3_key PD.ilfds_i1_i8
             [ ("r", PD.table5_r); ("s", PD.table5_s) ]
             result));
    case "three databases chain transitively" (fun () ->
        let mk rows =
          relation [ "k"; "x" ] [ [ "k" ] ] rows
        in
        let key = E.Extended_key.make [ "k" ] in
        let result =
          E.Cluster.integrate ~key []
            [ ("a", mk [ [ "e1"; "1" ] ]);
              ("b", mk [ [ "e1"; "2" ]; [ "e2"; "3" ] ]);
              ("c", mk [ [ "e1"; "4" ]; [ "e9"; "5" ] ]) ]
        in
        Alcotest.(check int) "one 3-way cluster, one 0-way" 1
          (List.length result.clusters);
        (match result.clusters with
        | [ c ] -> Alcotest.(check int) "3 members" 3 (List.length c.members)
        | _ -> Alcotest.fail "one cluster expected");
        Alcotest.(check int) "singletons" 2 (List.length result.singletons));
    case "incomplete extended key stays undetermined" (fun () ->
        let a = relation [ "k"; "x" ] [ [ "k" ] ] [ [ "e1"; "1" ] ] in
        let b = relation [ "k"; "y" ] [ [ "k" ] ] [ [ "e1"; "2" ] ] in
        let key = E.Extended_key.make [ "k"; "z" ] in
        let result = E.Cluster.integrate ~key [] [ ("a", a); ("b", b) ] in
        Alcotest.(check int) "" 0 (List.length result.clusters);
        Alcotest.(check int) "" 2 (List.length result.undetermined));
    case "generalised uniqueness violation detected" (fun () ->
        (* Two tuples of the same DB sharing the extended-key vector:
           the key {x} is not a key of db a. *)
        let a = relation [ "k"; "x" ] [ [ "k" ] ]
            [ [ "e1"; "same" ]; [ "e2"; "same" ] ] in
        let b = relation [ "j"; "x" ] [ [ "j" ] ] [ [ "f1"; "same" ] ] in
        let key = E.Extended_key.make [ "x" ] in
        let result = E.Cluster.integrate ~key [] [ ("a", a); ("b", b) ] in
        Alcotest.(check int) "" 1 (List.length result.violations));
    check_raises_any "duplicate db names rejected" (fun () ->
        E.Cluster.integrate ~key:PD.example3_key []
          [ ("x", PD.table5_r); ("x", PD.table5_s) ]);
    case "clusters use derived values" (fun () ->
        let result =
          E.Cluster.integrate ~key:PD.example3_key PD.ilfds_i1_i8
            [ ("r", PD.table5_r); ("s", PD.table5_s) ]
        in
        Alcotest.(check bool) "Gyros cluster exists" true
          (List.exists
             (fun (c : E.Cluster.cluster) ->
               List.exists
                 (fun kv -> V.eq3 kv (v "Gyros") = V.True)
                 c.key_values)
             result.clusters));
  ]

(* ---- Explain ---- *)

(* The explanations of a run's matching table, as the CLI makes them. *)
let explain ?mode ~r ~s ~key ilfds =
  E.Explain.matches ?mode ~r ~s ~key ilfds
    (E.Identify.run ~r ~s ~key ilfds).matching_table

let explain_tests =
  [
    case "one explanation per matched pair" (fun () ->
        let es =
          explain ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" 3 (List.length es));
    case "It'sGreek explanation shows the I7+I8 chain" (fun () ->
        let es =
          explain ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let greek =
          List.find
            (fun (e : E.Explain.explanation) ->
              V.to_string (R.Tuple.nth e.entry.E.Matching_table.r_key 0)
              = "It'sGreek")
            es
        in
        let attrs =
          List.map
            (fun (d : Ilfd.Apply.derivation) -> d.attribute)
            greek.r_derivations
        in
        (* The chain derives the scratch county before speciality. *)
        Alcotest.(check bool) "county step" true (List.mem "county" attrs);
        Alcotest.(check bool) "speciality step" true
          (List.mem "speciality" attrs));
    case "agreed key values are reported" (fun () ->
        let es =
          explain ~r:PD.table2_r ~s:PD.table2_s
            ~key:PD.example2_key [ PD.example2_ilfd ]
        in
        match es with
        | [ e ] ->
            Alcotest.(check (list string)) ""
              [ "name=TwinCities"; "cuisine=Indian" ]
              (List.map
                 (fun (a, value) ->
                   Printf.sprintf "%s=%s" a (V.to_string value))
                 e.key_values)
        | _ -> Alcotest.fail "one explanation expected");
    case "every derivation step carries an Armstrong proof" (fun () ->
        let es =
          explain ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let r_schema = R.Relation.schema PD.table5_r in
        let s_schema = R.Relation.schema PD.table5_s in
        List.iter
          (fun (e : E.Explain.explanation) ->
            let tr =
              Option.get
                (R.Relation.find_opt
                   (fun t ->
                     R.Tuple.equal
                       (R.Tuple.project r_schema t [ "name"; "cuisine" ])
                       e.entry.E.Matching_table.r_key)
                   PD.table5_r)
            in
            let ts =
              Option.get
                (R.Relation.find_opt
                   (fun t ->
                     R.Tuple.equal
                       (R.Tuple.project s_schema t [ "name"; "speciality" ])
                       e.entry.s_key)
                   PD.table5_s)
            in
            List.iter
              (fun d ->
                Alcotest.(check bool) "r proof" true
                  (Option.is_some
                     (E.Explain.prove_derivation PD.ilfds_i1_i8 r_schema tr d)))
              e.r_derivations;
            List.iter
              (fun d ->
                Alcotest.(check bool) "s proof" true
                  (Option.is_some
                     (E.Explain.prove_derivation PD.ilfds_i1_i8 s_schema ts d)))
              e.s_derivations)
          es);
    case "check-conflicts explanation reports the witness" (fun () ->
        (* Regression: a conflicting instance used to kill the explainer
           with [assert false]; it must raise [Conflict_found] with the
           disagreeing derivations attached, like the pipeline itself. *)
        let explain mode =
          explain ?mode
            ~r:(relation [ "name" ] [ [ "name" ] ] [ [ "alpha" ] ])
            ~s:
              (relation
                 [ "name"; "cuisine" ]
                 [ [ "name" ] ]
                 [ [ "alpha"; "first" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = first";
              Ilfd.parse "name = alpha -> cuisine = second";
            ]
        in
        (match explain (Some Ilfd.Apply.Check_conflicts) with
        | _ -> Alcotest.fail "Conflict_found expected"
        | exception Ilfd.Apply.Conflict_found c ->
            Alcotest.(check string) "attribute" "cuisine" c.attribute;
            Alcotest.(check string) "first" "first" (V.to_string c.first);
            Alcotest.(check string) "second" "second" (V.to_string c.second));
        (* First-rule (cut) semantics still explains the same instance. *)
        Alcotest.(check int) "first-rule explains" 1
          (List.length (explain None)));
    case "render mentions rules and values" (fun () ->
        let es =
          explain ~r:PD.table2_r ~s:PD.table2_s
            ~key:PD.example2_key [ PD.example2_ilfd ]
        in
        let out = E.Explain.render es in
        let contains needle =
          let nl = String.length needle and ol = String.length out in
          let rec scan i =
            i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
          in
          scan 0
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains needle))
          [ "TwinCities"; "cuisine=Indian"; "Mughalai" ]);
  ]

let () =
  Alcotest.run "extensions"
    [
      ("explain", explain_tests);
      ("aggregate", aggregate_tests);
      ("index", index_tests);
      ("incremental", incremental_tests);
      ("mine", mine_tests);
      ("align", align_tests);
      ("fusion", fusion_tests);
      ("cluster", cluster_tests);
    ]
