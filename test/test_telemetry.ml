(* Tests for the telemetry subsystem: the sink itself (counters, spans,
   rendering) and its contract with the pipeline — counters account for
   exactly what ran. *)

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
    case "reset clears everything" (fun () ->
        let t = Telemetry.create () in
        Telemetry.incr t "c";
        ignore (Telemetry.span t "s" (fun () -> ()));
        Telemetry.reset t;
        Alcotest.(check int) "counters" 0 (List.length (Telemetry.counters t));
        Alcotest.(check int) "spans" 0 (List.length (Telemetry.spans t)));
    case "json renders finite numbers and expected keys" (fun () ->
        let t = Telemetry.create () in
        Telemetry.add t "identify.pairs" 100;
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
            "\"identify.pairs\":100";
            "\"phase\":{\"ms\":";
            "\"ilfd_class_sharing\"";
          ];
        (* The whole point of the guarded quotients: tuples = 0 must not
           leak non-finite floats into the JSON. *)
        Alcotest.(check bool) "no nan" false (contains json "nan");
        Alcotest.(check bool) "no inf" false (contains json "inf"));
    case "derived quotients are guarded" (fun () ->
        let t = Telemetry.create () in
        Telemetry.add t "ilfd.tuples" 0;
        Telemetry.add t "ilfd.fixpoint.classes" 0;
        List.iter
          (fun (_, value) ->
            Alcotest.(check bool) "finite" true (Float.is_finite value))
          (Telemetry.derived t));
  ]

(* ---- the pipeline contract ---- *)

let run_paper_pipeline () =
  let telemetry = Telemetry.create () in
  let o =
    E.Identify.run ~telemetry ~r:PD.table5_r ~s:PD.table5_s
      ~key:PD.example3_key PD.ilfds_i1_i8
  in
  (telemetry, o)

let restaurant_instance () =
  Workload.Restaurant.generate
    { Workload.Restaurant.default with n_entities = 40; seed = 7 }

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
             (Telemetry.spans t));
        Alcotest.(check bool) "compile span present, once" true
          (List.exists
             (fun s ->
               s.Telemetry.span_name = "ilfd.compile" && s.Telemetry.calls = 1)
             (Telemetry.spans t)));
    case "fixpoint counters are canonical" (fun () ->
        (* Two tuples agreeing on every attribute the family can read
           (the key id is irrelevant to it) are one derivation class;
           the one-rule family derives cuisine once per class and twice
           across rows. *)
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
        Alcotest.(check int) "delta facts" 1 (c "ilfd.fixpoint.delta_facts");
        Alcotest.(check int) "fallback classes" 0
          (c "ilfd.fixpoint.fallback_classes");
        Alcotest.(check int) "derivations" 2 (c "ilfd.derivations"));
    case "disabled telemetry changes nothing" (fun () ->
        let inst = restaurant_instance () in
        let run telemetry =
          E.Identify.run ~telemetry ~r:inst.r ~s:inst.s ~key:inst.key
            inst.ilfds
        in
        Alcotest.(check bool) "same outcome" true
          (run (Telemetry.create ()) = run Telemetry.off));
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
        ignore (E.Incremental.insert_s t s_tuple);
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
