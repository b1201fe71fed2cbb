(* The harness checking the harness: scenario determinism, the clean
   sweep, mutation sanity (every seeded fault is caught and shrunk), and
   the corpus loader. *)

module C = Checker

let case name f = Alcotest.test_case name `Quick f

let dump sc = Format.asprintf "%a" C.Scenario.pp sc

let scenario_tests =
  [
    case "equal seeds yield identical scenarios" (fun () ->
        List.iter
          (fun seed ->
            let a = C.Scenario.generate ~seed
            and b = C.Scenario.generate ~seed in
            Alcotest.(check string)
              (Printf.sprintf "seed %d replays" seed)
              (dump a) (dump b);
            Alcotest.(check bool) "same strictness" a.strict b.strict)
          [ 1; 7; 42; 1000 ]);
    case "distinct seeds yield distinct scenarios" (fun () ->
        (* Not a hard guarantee seed-by-seed, but over a few seeds the
           dumps must not all collapse to one instance. *)
        let dumps =
          List.map (fun seed -> dump (C.Scenario.generate ~seed)) [ 1; 2; 3 ]
        in
        Alcotest.(check bool) "" true
          (List.length (List.sort_uniq compare dumps) > 1));
    case "dump embeds the replay command" (fun () ->
        let sc = C.Scenario.generate ~seed:17 in
        let out = dump sc in
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec scan i =
            i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
          in
          scan 0
        in
        Alcotest.(check bool) "replay line" true
          (contains "check --seed 17 --scenarios 1" out));
    case "with_instance preserves identity, size tracks it" (fun () ->
        let sc = C.Scenario.generate ~seed:5 in
        let smaller =
          C.Scenario.with_instance sc ~r:sc.r ~s:sc.s ~ilfds:[]
        in
        Alcotest.(check int) "seed kept" sc.seed smaller.seed;
        Alcotest.(check bool) "strict kept" sc.strict smaller.strict;
        Alcotest.(check int) "size is |R|+|S|"
          (Relational.Relation.cardinality sc.r
          + Relational.Relation.cardinality sc.s)
          (C.Scenario.size sc));
  ]

let fault_tests =
  [
    case "fault names round-trip" (fun () ->
        List.iter
          (fun fault ->
            let name = C.Oracle.fault_to_string fault in
            Alcotest.(check bool) name true
              (C.Oracle.fault_of_string name = Some fault))
          C.Oracle.all_faults;
        Alcotest.(check bool) "unknown rejected" true
          (C.Oracle.fault_of_string "no-such-fault" = None));
  ]

let seeds ~from n = C.Harness.seed_range ~seed:from ~scenarios:n ()

let oracle_tests =
  [
    case "unmodified engines pass a fixed-seed sweep" (fun () ->
        let outcome = C.Harness.run ~seeds:(seeds ~from:1 25) () in
        Alcotest.(check int) "all scenarios ran" 25 outcome.scenarios_run;
        Alcotest.(check bool) "no counterexamples" true
          (C.Harness.ok outcome));
    case "broken blocking key is caught and shrunk small" (fun () ->
        (* The mutation-sanity acceptance bar: the deliberately broken
           join must be reported within a small fixed-seed budget and
           shrink to at most 4 tuples. *)
        let outcome =
          C.Harness.run ~fault:C.Oracle.Broken_blocking_key
            ~max_failures:1 ~seeds:(seeds ~from:1 10) ()
        in
        match outcome.failures with
        | [ f ] -> (
            match f.shrunk with
            | Some (small, d, stats) ->
                Alcotest.(check bool) "shrunk to <= 4 tuples" true
                  (C.Scenario.size small <= 4);
                Alcotest.(check string) "same failing check"
                  f.discrepancy.check d.check;
                Alcotest.(check bool) "some removals kept" true
                  (stats.kept > 0 && stats.attempts >= stats.kept)
            | None -> Alcotest.fail "shrinking was on")
        | _ -> Alcotest.fail "the fault must be detected");
    case "dropped matching-table entry is caught" (fun () ->
        let outcome =
          C.Harness.run ~fault:C.Oracle.Drop_last_pair ~shrink:false
            ~max_failures:1 ~seeds:(seeds ~from:1 10) ()
        in
        Alcotest.(check bool) "detected" false (C.Harness.ok outcome));
    case "lost incremental insert is caught" (fun () ->
        let outcome =
          C.Harness.run ~fault:C.Oracle.Lost_insert ~shrink:false
            ~max_failures:1 ~seeds:(seeds ~from:1 10) ()
        in
        match outcome.failures with
        | f :: _ ->
            Alcotest.(check string) "replay check names the engine"
              "incremental-replay" f.discrepancy.check
        | [] -> Alcotest.fail "the fault must be detected");
    case "max_failures stops the sweep early" (fun () ->
        let outcome =
          C.Harness.run ~fault:C.Oracle.Broken_blocking_key ~shrink:false
            ~max_failures:1 ~seeds:(seeds ~from:1 10) ()
        in
        Alcotest.(check int) "one failure" 1 (List.length outcome.failures);
        Alcotest.(check bool) "stopped before the full range" true
          (outcome.scenarios_run < 10));
    case "progress callback sees every scenario" (fun () ->
        let calls = ref 0 in
        let _ =
          C.Harness.run
            ~progress:(fun ~scenario:_ ~total ~failures:_ ->
              incr calls;
              Alcotest.(check int) "total" 5 total)
            ~seeds:(seeds ~from:1 5) ()
        in
        Alcotest.(check int) "5 callbacks" 5 !calls);
    case "derivations in stratum order are caught" (fun () ->
        let outcome =
          C.Harness.run ~fault:C.Oracle.Stratum_order ~shrink:false
            ~max_failures:1 ~seeds:(seeds ~from:1 10) ()
        in
        match outcome.failures with
        | f :: _ ->
            Alcotest.(check string) "the per-tuple check names it"
              "fixpoint-agreement" f.discrepancy.check
        | [] -> Alcotest.fail "the fault must be detected");
    case "a lost not-matched pair is caught" (fun () ->
        let outcome =
          C.Harness.run ~fault:C.Oracle.Nmt_lost_pair ~shrink:false
            ~max_failures:1 ~seeds:(seeds ~from:1 10) ()
        in
        match outcome.failures with
        | f :: _ ->
            Alcotest.(check string) "the Figure 3 check names it"
              "figure3-agreement" f.discrepancy.check
        | [] -> Alcotest.fail "the fault must be detected");
    case "a pair lost by the Section 4.2 expressions is caught" (fun () ->
        let outcome =
          C.Harness.run ~fault:C.Oracle.Algebra_lost_pair ~shrink:false
            ~max_failures:1 ~seeds:(seeds ~from:1 10) ()
        in
        match outcome.failures with
        | f :: _ ->
            Alcotest.(check string) "the algebra check names it"
              "algebra-agreement" f.discrepancy.check
        | [] -> Alcotest.fail "the fault must be detected");
  ]

(* Render (family, seed) entries for list-equality checks. *)
let entry (k, s) = Printf.sprintf "%s:%d" (C.Scenario.kind_to_string k) s

let corpus_tests =
  [
    case "corpus loads ints, comments, blanks" (fun () ->
        let path = Filename.concat (Sys.getcwd ()) "corpus_ok.txt" in
        let oc = open_out path in
        output_string oc "# regression seeds\n1\n\n42   \n# trailing\n7\n";
        close_out oc;
        (match C.Harness.load_corpus path with
        | Ok seeds ->
            Alcotest.(check (list string))
              ""
              [ "restaurant:1"; "restaurant:42"; "restaurant:7" ]
              (List.map entry seeds)
        | Error e -> Alcotest.fail e);
        Sys.remove path);
    case "corpus loads mixed-family lines, old lines keep parsing" (fun () ->
        let path = Filename.concat (Sys.getcwd ()) "corpus_mixed.txt" in
        let oc = open_out path in
        output_string oc
          "# mixed families\n1\n5 kdb\n9 md\n2 merge-policy\n3 restaurant\n";
        close_out oc;
        (match C.Harness.load_corpus path with
        | Ok seeds ->
            Alcotest.(check (list string))
              ""
              [ "restaurant:1"; "kdb:5"; "md:9"; "merge-policy:2";
                "restaurant:3" ]
              (List.map entry seeds)
        | Error e -> Alcotest.fail e);
        Sys.remove path);
    case "corpus rejects unknown family names" (fun () ->
        let path = Filename.concat (Sys.getcwd ()) "corpus_badfam.txt" in
        let oc = open_out path in
        output_string oc "1\n2 no-such-family\n";
        close_out oc;
        (match C.Harness.load_corpus path with
        | Ok _ -> Alcotest.fail "must reject"
        | Error e ->
            let contains needle hay =
              let nl = String.length needle and hl = String.length hay in
              let rec scan i =
                i + nl <= hl
                && (String.sub hay i nl = needle || scan (i + 1))
              in
              scan 0
            in
            Alcotest.(check bool) "names line 2" true (contains ":2:" e);
            Alcotest.(check bool) "names the family" true
              (contains "no-such-family" e);
            Alcotest.(check bool) "lists valid names" true
              (contains "merge-policy" e));
        Sys.remove path);
    case "malformed corpus reports the line" (fun () ->
        let path = Filename.concat (Sys.getcwd ()) "corpus_bad.txt" in
        let oc = open_out path in
        output_string oc "1\nnot-a-seed\n";
        close_out oc;
        (match C.Harness.load_corpus path with
        | Ok _ -> Alcotest.fail "must reject"
        | Error e ->
            let contains needle hay =
              let nl = String.length needle and hl = String.length hay in
              let rec scan i =
                i + nl <= hl
                && (String.sub hay i nl = needle || scan (i + 1))
              in
              scan 0
            in
            Alcotest.(check bool) "names line 2" true (contains ":2:" e));
        Sys.remove path);
    case "missing corpus is an error, not an exception" (fun () ->
        match C.Harness.load_corpus "does/not/exist.txt" with
        | Ok _ -> Alcotest.fail "must fail"
        | Error _ -> ());
    case "corpus seeds replay clean on unmodified engines" (fun () ->
        let path = Filename.concat (Sys.getcwd ()) "corpus_replay.txt" in
        let oc = open_out path in
        output_string oc "1\n3\n1 kdb\n1 md\n1 merge-policy\n";
        close_out oc;
        (match C.Harness.load_corpus path with
        | Ok seeds ->
            Alcotest.(check bool) "" true
              (C.Harness.ok (C.Harness.run ~seeds ()))
        | Error e -> Alcotest.fail e);
        Sys.remove path);
  ]

let () =
  Alcotest.run "checker"
    [
      ("scenario", scenario_tests);
      ("fault", fault_tests);
      ("oracle", oracle_tests);
      ("corpus", corpus_tests);
    ]
