(* Tests for the workload substrate: the deterministic RNG, pools, the
   restaurant and chain generators (validity of generated instances and
   the headline soundness property of ILFD matching on them), and the
   metrics. *)

module R = Relational
module V = R.Value
module W = Workload
module E = Entity_id
open Helpers

let case name f = Alcotest.test_case name `Quick f

let rng_tests =
  [
    case "same seed, same stream" (fun () ->
        let a = W.Rng.create 7 and b = W.Rng.create 7 in
        let xs = List.init 20 (fun _ -> W.Rng.next a) in
        let ys = List.init 20 (fun _ -> W.Rng.next b) in
        Alcotest.(check bool) "" true (xs = ys));
    case "different seeds diverge" (fun () ->
        let a = W.Rng.create 7 and b = W.Rng.create 8 in
        Alcotest.(check bool) "" false
          (List.init 5 (fun _ -> W.Rng.next a)
          = List.init 5 (fun _ -> W.Rng.next b)));
    case "copy forks the stream" (fun () ->
        let a = W.Rng.create 7 in
        let b = W.Rng.copy a in
        Alcotest.(check int) "" (W.Rng.next a) (W.Rng.next b));
    qtest "below stays in range"
      QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 50))
      (fun (seed, n) ->
        let rng = W.Rng.create seed in
        let x = W.Rng.below rng n in
        x >= 0 && x < n);
    qtest "float stays in [0,1)" QCheck2.Gen.(int_range 0 1000) (fun seed ->
        let rng = W.Rng.create seed in
        let f = W.Rng.float rng in
        f >= 0.0 && f < 1.0);
    case "sample yields distinct elements" (fun () ->
        let rng = W.Rng.create 3 in
        let xs = W.Rng.sample rng [| 1; 2; 3; 4; 5 |] 5 in
        Alcotest.(check (list int)) "" [ 1; 2; 3; 4; 5 ]
          (List.sort compare xs));
    case "shuffle permutes" (fun () ->
        let rng = W.Rng.create 3 in
        let xs = W.Rng.shuffle rng [ 1; 2; 3; 4; 5 ] in
        Alcotest.(check (list int)) "" [ 1; 2; 3; 4; 5 ]
          (List.sort compare xs));
    check_raises_any "below 0 rejected" (fun () ->
        W.Rng.below (W.Rng.create 1) 0);
  ]

let pools_tests =
  [
    case "specialities are unique" (fun () ->
        let specs = Array.to_list (Array.map fst W.Pools.speciality_cuisine) in
        Alcotest.(check int) "" (List.length specs)
          (List.length (List.sort_uniq String.compare specs)));
    case "speciality cuisines are in the cuisine pool" (fun () ->
        Alcotest.(check bool) "" true
          (Array.for_all
             (fun (_, c) -> Array.mem c W.Pools.cuisines)
             W.Pools.speciality_cuisine));
    case "names are distinct over a large range" (fun () ->
        let names = List.init 1000 W.Pools.name in
        Alcotest.(check int) "" 1000
          (List.length (List.sort_uniq String.compare names)));
    case "streets are distinct over a large range" (fun () ->
        let streets = List.init 500 W.Pools.street in
        Alcotest.(check int) "" 500
          (List.length (List.sort_uniq String.compare streets)));
  ]

let default_small =
  { W.Restaurant.default with n_entities = 40; seed = 123 }

let restaurant_tests =
  [
    case "generate respects declared keys (no exception)" (fun () ->
        let inst = W.Restaurant.generate default_small in
        Alcotest.(check bool) "" true (R.Relation.cardinality inst.r > 0);
        Alcotest.(check bool) "" true (R.Relation.cardinality inst.s > 0));
    case "same config, same instance" (fun () ->
        let a = W.Restaurant.generate default_small in
        let b = W.Restaurant.generate default_small in
        Alcotest.(check bool) "" true (R.Relation.equal a.r b.r);
        Alcotest.(check bool) "" true (R.Relation.equal a.s b.s));
    case "generated ILFDs hold in the world" (fun () ->
        let inst = W.Restaurant.generate default_small in
        Alcotest.(check bool) "" true
          (List.for_all
             (Ilfd.satisfied_by_relation ~strict:false inst.world)
             inst.ilfds));
    case "truth pairs reference existing tuples" (fun () ->
        let inst = W.Restaurant.generate default_small in
        let r_keys =
          List.map
            (fun t -> R.Relation.key_of inst.r t)
            (R.Relation.tuples inst.r)
        in
        Alcotest.(check bool) "" true
          (List.for_all
             (fun (e : E.Matching_table.entry) ->
               List.exists (R.Tuple.equal e.r_key) r_keys)
             inst.truth));
    case "full ILFD coverage gives perfect precision and recall" (fun () ->
        let inst = W.Restaurant.generate default_small in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision;
        Alcotest.(check (float 0.0001)) "recall" 1.0 m.recall);
    qtest ~count:15 "ILFD matching is sound for any seed and homonym rate"
      QCheck2.Gen.(pair seed_gen (int_range 0 40))
      (fun (seed, homonyms) ->
        let inst =
          W.Restaurant.generate
            {
              default_small with
              seed;
              n_entities = 30;
              homonym_rate = float_of_int homonyms /. 100.0;
              spec_ilfd_coverage = 0.7;
              entity_ilfd_coverage = 0.6;
              street_ilfd_coverage = 0.5;
            }
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        m.precision = 1.0);
    case "partial coverage costs recall, never precision" (fun () ->
        let partial =
          W.Restaurant.generate
            { default_small with entity_ilfd_coverage = 0.3 }
        in
        let o =
          E.Identify.run ~r:partial.r ~s:partial.s ~key:partial.key
            partial.ilfds
        in
        let m = W.Metrics.evaluate ~truth:partial.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision;
        Alcotest.(check bool) "recall below 1" true (m.recall < 1.0));
    case "null streets block derivations but stay sound" (fun () ->
        let inst =
          W.Restaurant.generate { default_small with null_street_rate = 0.5 }
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision);
    case "typos break recall, never soundness" (fun () ->
        let inst =
          W.Restaurant.generate { default_small with typo_rate = 0.3 }
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision;
        Alcotest.(check bool) "recall below 1" true (m.recall < 1.0);
        (* The ground truth references names as stored in R. *)
        let r_keys =
          List.map (R.Relation.key_of inst.r) (R.Relation.tuples inst.r)
        in
        Alcotest.(check bool) "truth keys exist in R" true
          (List.for_all
             (fun (e : E.Matching_table.entry) ->
               List.exists (R.Tuple.equal e.r_key) r_keys)
             inst.truth));
    case "world has (name, speciality) and street as keys" (fun () ->
        let inst = W.Restaurant.generate default_small in
        Alcotest.(check bool) "" true
          (R.Key_tools.is_superkey inst.world [ "name"; "speciality" ]);
        Alcotest.(check bool) "" true
          (R.Key_tools.is_superkey inst.world [ "street" ]));
  ]

let chain_tests =
  [
    case "depth 1 behaves like direct derivation" (fun () ->
        let inst =
          W.Chain.generate { W.Chain.default with n_entities = 10; depth = 1 }
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "" 1.0 m.f1);
    case "deep chains resolve" (fun () ->
        let inst =
          W.Chain.generate { W.Chain.default with n_entities = 8; depth = 6 }
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "" 1.0 m.f1);
    case "broken links cost recall only" (fun () ->
        let inst =
          W.Chain.generate
            { W.Chain.default with n_entities = 30; depth = 3;
              ilfd_coverage = 0.7 }
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision;
        Alcotest.(check bool) "recall below 1" true (m.recall < 1.0));
    check_raises_any "depth 0 rejected" (fun () ->
        W.Chain.generate { W.Chain.default with depth = 0 });
    case "ilfd count is depth x entities at full coverage" (fun () ->
        let inst =
          W.Chain.generate { W.Chain.default with n_entities = 5; depth = 4 }
        in
        Alcotest.(check int) "" 20 (List.length inst.ilfds));
  ]

let metrics_tests =
  let entry r s =
    {
      E.Matching_table.r_key =
        R.Tuple.make (R.Schema.of_names [ "rk" ]) [ v r ];
      s_key = R.Tuple.make (R.Schema.of_names [ "sk" ]) [ v s ];
    }
  in
  let mt entries =
    E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ] entries
  in
  [
    case "perfect match" (fun () ->
        let truth = [ entry "1" "a" ] in
        let m = W.Metrics.evaluate ~truth (mt [ entry "1" "a" ]) in
        Alcotest.(check (float 0.0001)) "" 1.0 m.f1);
    case "false positives hit precision" (fun () ->
        let truth = [ entry "1" "a" ] in
        let m =
          W.Metrics.evaluate ~truth (mt [ entry "1" "a"; entry "2" "b" ])
        in
        Alcotest.(check (float 0.0001)) "precision" 0.5 m.precision;
        Alcotest.(check (float 0.0001)) "recall" 1.0 m.recall);
    case "empty declaration has precision 1, recall 0" (fun () ->
        let truth = [ entry "1" "a" ] in
        let m = W.Metrics.evaluate ~truth (mt []) in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision;
        Alcotest.(check (float 0.0001)) "recall" 0.0 m.recall;
        Alcotest.(check (float 0.0001)) "f1" 0.0 m.f1);
    case "soundness_violations lists false matches" (fun () ->
        let truth = [ entry "1" "a" ] in
        let bad = mt [ entry "1" "a"; entry "9" "z" ] in
        Alcotest.(check int) "" 1
          (List.length (W.Metrics.soundness_violations ~truth bad)));
    case "all empty is the vacuous perfect score" (fun () ->
        let m = W.Metrics.evaluate ~truth:[] (mt []) in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision;
        Alcotest.(check (float 0.0001)) "recall" 1.0 m.recall;
        Alcotest.(check (float 0.0001)) "f1" 1.0 m.f1);
    case "empty truth with declared entries" (fun () ->
        (* Nothing to find, but matches were declared anyway: recall is
           vacuously 1, precision 0, and F1 must come out 0 — not nan. *)
        let m = W.Metrics.evaluate ~truth:[] (mt [ entry "1" "a" ]) in
        Alcotest.(check (float 0.0001)) "precision" 0.0 m.precision;
        Alcotest.(check (float 0.0001)) "recall" 1.0 m.recall;
        Alcotest.(check (float 0.0001)) "f1" 0.0 m.f1);
    qtest ~count:50 "metrics are always finite"
      QCheck2.Gen.(
        pair (list_size (0 -- 4) (int_range 0 3))
          (list_size (0 -- 4) (int_range 0 3)))
      (fun (declared, truth) ->
        let to_entries = List.map (fun i -> entry (string_of_int i) "s") in
        let m =
          W.Metrics.evaluate ~truth:(to_entries truth)
            (mt
               (List.sort_uniq compare declared
               |> List.map (fun i -> entry (string_of_int i) "s")))
        in
        Float.is_finite m.precision
        && Float.is_finite m.recall
        && Float.is_finite m.f1);
    (* The counts are the list-scan definition: an entry is correct when
       some truth entry equals it on both keys ([Tuple.equal]). The cells
       include [Int 1] against [Float 1.], which differ, and [0.] against
       [-0.], which are one value. *)
    qtest ~count:300 "the counts through the truth table = the list scan"
      QCheck2.Gen.(
        let cell = oneofl [ vi 1; V.float 1.; V.float 0.; V.float (-0.); v "a" ] in
        let entry =
          map2
            (fun r s ->
              {
                E.Matching_table.r_key = R.Tuple.make (R.Schema.of_names [ "rk" ]) [ r ];
                s_key = R.Tuple.make (R.Schema.of_names [ "sk" ]) [ s ];
              })
            cell cell
        in
        pair (list_size (0 -- 8) entry) (list_size (0 -- 8) entry))
      (fun (declared, truth) ->
        let table = mt declared in
        let equal (a : E.Matching_table.entry) (b : E.Matching_table.entry) =
          R.Tuple.equal a.r_key b.r_key && R.Tuple.equal a.s_key b.s_key
        in
        let wrong =
          List.filter
            (fun e -> not (List.exists (equal e) truth))
            (E.Matching_table.entries table)
        in
        let m = W.Metrics.evaluate ~truth table in
        m.declared = E.Matching_table.cardinality table
        && m.correct = m.declared - List.length wrong
        && m.truth_size = List.length truth
        && List.equal equal wrong (W.Metrics.soundness_violations ~truth table));
  ]

let () =
  Alcotest.run "workload"
    [
      ("rng", rng_tests);
      ("pools", pools_tests);
      ("restaurant", restaurant_tests);
      ("chain", chain_tests);
      ("metrics", metrics_tests);
    ]
