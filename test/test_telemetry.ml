(* Tests for the telemetry subsystem: the sink itself (counters, spans,
   local accumulators, rendering) and its contract with the pipeline —
   counters account for exactly what ran, and everything outside the
   [parallel.*] namespace is identical whatever the job count. *)

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

(* ---- the sink ---- *)

let sink_tests =
  [
    case "off sink collects nothing" (fun () ->
        let t = Telemetry.off in
        Telemetry.add t "x" 5;
        Telemetry.incr t "x";
        Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
        Alcotest.(check int) "no counter" 0 (Telemetry.counter t "x");
        Alcotest.(check int) "no counters" 0
          (List.length (Telemetry.counters t));
        Alcotest.(check int) "no spans" 0 (List.length (Telemetry.spans t));
        Alcotest.(check int) "span is transparent" 42
          (Telemetry.span t "s" (fun () -> 42)));
    case "counters accumulate and sort" (fun () ->
        let t = Telemetry.create () in
        Telemetry.add t "b" 2;
        Telemetry.incr t "a";
        Telemetry.add t "b" 3;
        Alcotest.(check (list (pair string int)))
          "sorted, summed"
          [ ("a", 1); ("b", 5) ]
          (Telemetry.counters t));
    case "spans count calls and charge a fake clock" (fun () ->
        (* A deterministic clock: each reading advances 10 ms. *)
        let now = ref 0.0 in
        let clock () =
          let t = !now in
          now := t +. 0.010;
          t
        in
        let t = Telemetry.create ~clock () in
        ignore (Telemetry.span t "work" (fun () -> ()));
        ignore (Telemetry.span t "work" (fun () -> ()));
        match Telemetry.spans t with
        | [ { Telemetry.span_name; total_ms; calls } ] ->
            Alcotest.(check string) "name" "work" span_name;
            Alcotest.(check int) "calls" 2 calls;
            Alcotest.(check (float 0.001)) "10 ms per call" 20.0 total_ms
        | other ->
            Alcotest.fail
              (Printf.sprintf "one span expected, got %d" (List.length other)));
    case "span charges even when the body raises" (fun () ->
        let t = Telemetry.create () in
        (try Telemetry.span t "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        match Telemetry.spans t with
        | [ { Telemetry.calls; _ } ] -> Alcotest.(check int) "calls" 1 calls
        | _ -> Alcotest.fail "span expected");
    case "locals merge into the sink" (fun () ->
        let t = Telemetry.create () in
        let l1 = Telemetry.local t and l2 = Telemetry.local t in
        Telemetry.local_add l1 "c" 3;
        Telemetry.local_incr l2 "c";
        Telemetry.local_incr l2 "d";
        Telemetry.merge t l1;
        Telemetry.merge t l2;
        Alcotest.(check int) "c" 4 (Telemetry.counter t "c");
        Alcotest.(check int) "d" 1 (Telemetry.counter t "d"));
    case "local of an off sink is a no-op" (fun () ->
        let t = Telemetry.off in
        let l = Telemetry.local t in
        Telemetry.local_add l "c" 3;
        Telemetry.merge t l;
        Alcotest.(check int) "" 0 (Telemetry.counter t "c"));
    case "counters_stable filters the parallel namespace" (fun () ->
        let t = Telemetry.create () in
        Telemetry.add t "parallel.chunks" 7;
        Telemetry.add t "partition.pairs_naive" 9;
        Alcotest.(check (list (pair string int)))
          ""
          [ ("partition.pairs_naive", 9) ]
          (Telemetry.counters_stable t));
    case "reset clears everything" (fun () ->
        let t = Telemetry.create () in
        Telemetry.incr t "c";
        ignore (Telemetry.span t "s" (fun () -> ()));
        Telemetry.reset t;
        Alcotest.(check int) "counters" 0 (List.length (Telemetry.counters t));
        Alcotest.(check int) "spans" 0 (List.length (Telemetry.spans t)));
    case "json renders finite numbers and expected keys" (fun () ->
        let t = Telemetry.create () in
        Telemetry.add t "partition.pairs_naive" 100;
        Telemetry.add t "blocking.identity.candidates" 0;
        Telemetry.add t "blocking.distinctness.candidates" 0;
        Telemetry.add t "ilfd.tuples" 0;
        Telemetry.add t "ilfd.fixpoint.classes" 0;
        ignore (Telemetry.span t "phase" (fun () -> ()));
        let json = Telemetry.to_json t in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains json needle))
          [
            "\"counters\"";
            "\"spans\"";
            "\"derived\"";
            "\"partition.pairs_naive\":100";
            "\"phase\":{\"ms\":";
            "\"candidate_pair_reduction\"";
            "\"ilfd_class_sharing\"";
          ];
        (* The whole point of the guarded quotients: candidates = 0 and
           tuples = 0 must not leak non-finite floats into the JSON. *)
        Alcotest.(check bool) "no nan" false (contains json "nan");
        Alcotest.(check bool) "no inf" false (contains json "inf"));
    case "derived quotients are guarded" (fun () ->
        let t = Telemetry.create () in
        Telemetry.add t "ilfd.tuples" 0;
        Telemetry.add t "ilfd.fixpoint.classes" 0;
        Telemetry.add t "partition.pairs_naive" 0;
        Telemetry.add t "partition.pairs_considered" 0;
        List.iter
          (fun (_, value) ->
            Alcotest.(check bool) "finite" true (Float.is_finite value))
          (Telemetry.derived t));
  ]

(* ---- the pipeline contract ---- *)

let run_paper_pipeline ?(jobs = 1) () =
  let telemetry = Telemetry.create () in
  let o =
    E.Identify.run ~jobs ~telemetry ~r:PD.table5_r ~s:PD.table5_s
      ~key:PD.example3_key PD.ilfds_i1_i8
  in
  (telemetry, o)

let restaurant_instance () =
  Workload.Restaurant.generate
    { Workload.Restaurant.default with n_entities = 40; seed = 7 }

let run_rules_pipeline ?(jobs = 1) () =
  let telemetry = Telemetry.create () in
  let inst = restaurant_instance () in
  let o =
    E.Identify.run_rules ~jobs ~telemetry
      ~identity:[ E.Extended_key.equivalence_rule inst.key ]
      ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
  in
  (telemetry, o)

let pipeline_tests =
  [
    case "identify counters match the outcome" (fun () ->
        let t, o = run_paper_pipeline () in
        Alcotest.(check int) "pairs" (List.length o.pairs)
          (Telemetry.counter t "identify.pairs");
        Alcotest.(check int) "unmatched_r" (List.length o.unmatched_r)
          (Telemetry.counter t "identify.unmatched_r");
        Alcotest.(check int) "tuples"
          (R.Relation.cardinality PD.table5_r
          + R.Relation.cardinality PD.table5_s)
          (Telemetry.counter t "ilfd.tuples");
        Alcotest.(check bool) "extend spans present" true
          (List.exists
             (fun s -> s.Telemetry.span_name = "identify.extend_r")
             (Telemetry.spans t)));
    case "partition verdict counters sum to the cross product" (fun () ->
        let t, _ = run_rules_pipeline () in
        let c = Telemetry.counter t in
        Alcotest.(check int) "matched + distinct + undetermined = pairs"
          (c "partition.pairs_naive")
          (c "partition.matched" + c "partition.distinct"
          + c "partition.undetermined"));
    case "blocking counters expose the candidate reduction" (fun () ->
        let t, o = run_rules_pipeline () in
        let c = Telemetry.counter t in
        (* Blocking proposes at most the cross product, exactly the fired
           pairs of the only identity rule, and every match came through
           it. *)
        Alcotest.(check bool) "candidates <= pairs" true
          (c "blocking.identity.candidates" <= c "partition.pairs_naive");
        (* The considered count is precisely what the two blocking passes
           proposed — the actually-enumerated pair space the reduction
           metric divides by. *)
        Alcotest.(check int) "pairs_considered = blocking candidates"
          (c "blocking.identity.candidates"
          + c "blocking.distinctness.candidates")
          (c "partition.pairs_considered");
        Alcotest.(check int) "fired = matched" (List.length o.pairs)
          (c "blocking.identity.fired");
        Alcotest.(check bool) "per-rule breakdown present" true
          (List.exists
             (fun (name, _) ->
               contains name "blocking.identity.rule."
               && contains name ".fired")
             (Telemetry.counters t)));
    case "fixpoint counters are canonical" (fun () ->
        (* Two tuples agreeing on every attribute the family can read
           (the key id is irrelevant to it) are one derivation class;
           the one-rule family stratifies into a single round, derives
           cuisine once per class and twice across rows. *)
        let r =
          R.Relation.create
            (R.Schema.of_names [ "id"; "speciality" ])
            ~keys:[ [ "id" ] ]
            [ [ vi 1; v "Hunan" ]; [ vi 2; v "Hunan" ] ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "cuisine" ])
        in
        let telemetry = Telemetry.create () in
        ignore
          (Ilfd.Fixpoint.extend_relation ~telemetry r ~target
             (Ilfd.Apply.compile
                [ Ilfd.parse "speciality = Hunan -> cuisine = Chinese" ]));
        let c = Telemetry.counter telemetry in
        Alcotest.(check int) "tuples" 2 (c "ilfd.tuples");
        Alcotest.(check int) "classes" 1 (c "ilfd.fixpoint.classes");
        Alcotest.(check int) "rounds" 1 (c "ilfd.fixpoint.rounds");
        Alcotest.(check int) "delta facts" 1 (c "ilfd.fixpoint.delta_facts");
        Alcotest.(check int) "fallback classes" 0
          (c "ilfd.fixpoint.fallback_classes");
        Alcotest.(check int) "derivations" 2 (c "ilfd.derivations"));
    case "stable counters are jobs-invariant" (fun () ->
        let t1, _ = run_rules_pipeline ~jobs:1 () in
        let t4, _ = run_rules_pipeline ~jobs:4 () in
        Alcotest.(check (list (pair string int)))
          "jobs 1 = jobs 4"
          (Telemetry.counters_stable t1)
          (Telemetry.counters_stable t4);
        let i1, _ = run_paper_pipeline ~jobs:1 () in
        let i4, _ = run_paper_pipeline ~jobs:3 () in
        Alcotest.(check (list (pair string int)))
          "identify jobs 1 = jobs 3"
          (Telemetry.counters_stable i1)
          (Telemetry.counters_stable i4));
    case "disabled telemetry changes nothing" (fun () ->
        let _, on = run_rules_pipeline () in
        let inst = restaurant_instance () in
        let off =
          E.Identify.run_rules
            ~identity:[ E.Extended_key.equivalence_rule inst.key ]
            ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        Alcotest.(check bool) "same outcome" true (on = off));
    case "incremental insertions charge the stored sink" (fun () ->
        let telemetry = Telemetry.create () in
        let t =
          E.Incremental.create ~telemetry ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        Telemetry.reset telemetry;
        let s_tuple =
          R.Tuple.make
            (R.Relation.schema PD.table5_s)
            [ v "Mystery"; v "Vegan"; v "Hennepin" ]
        in
        let _, _ = E.Incremental.insert_s t s_tuple in
        Alcotest.(check int) "inserts" 1
          (Telemetry.counter telemetry "incremental.inserts");
        Alcotest.(check bool) "insert span" true
          (List.exists
             (fun s -> s.Telemetry.span_name = "incremental.insert")
             (Telemetry.spans telemetry)));
  ]

let () =
  Alcotest.run "telemetry"
    [ ("sink", sink_tests); ("pipeline", pipeline_tests) ]
