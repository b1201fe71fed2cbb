(* Parameter sweeps establishing the paper's qualitative (shape) claims
   on scaled synthetic workloads:

   - soundness: the ILFD/extended-key technique keeps precision 1.0 at
     every knowledge level, while probabilistic and heuristic baselines
     trade precision for recall (and key-equality over non-key attributes
     collapses under homonyms);
   - monotone recall: more ILFD coverage -> more matches, never fewer;
   - cost: matching-table construction scales near-linearly in |R|+|S|
     with the hash join (the nested-loop alternative is quadratic);
   - chains: deeper derivation chains raise cost linearly and do not
     break soundness. *)

module R = Relational
module E = Entity_id
module W = Workload

let banner title =
  Printf.printf "\n================ %s ================\n" title

let time_once f =
  let start = Sys.time () in
  let result = f () in
  (result, Sys.time () -. start)

let metrics_row name (m : W.Metrics.t) extra =
  [ name;
    Printf.sprintf "%.3f" m.precision;
    Printf.sprintf "%.3f" m.recall;
    Printf.sprintf "%.3f" m.f1;
    string_of_int m.declared ]
  @ extra

let header = [ "technique"; "precision"; "recall"; "f1"; "declared" ]

(* ---- baseline comparison at a fixed, adversarial configuration ---- *)

let baselines () =
  banner "Baseline comparison (n=120, homonyms=25%, ILFD coverage=80%)";
  let inst =
    W.Restaurant.generate
      {
        W.Restaurant.default with
        n_entities = 120;
        seed = 2024;
        homonym_rate = 0.25;
        spec_ilfd_coverage = 0.8;
        entity_ilfd_coverage = 0.8;
        street_ilfd_coverage = 0.8;
      }
  in
  let truth = inst.truth in
  let eval = W.Metrics.evaluate ~truth in
  let ours =
    eval (E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
      .matching_table
  in
  let name_eq =
    eval (Baselines.Key_equiv.run_on_attributes ~attrs:[ "name" ] inst.r inst.s)
  in
  let prob_attr =
    eval (Baselines.Prob_attr.run inst.r inst.s).matched
  in
  let rng = W.Rng.create 77 in
  let heuristic =
    let rules =
      List.map
        (fun (i, c) -> Baselines.Heuristic.rule ~confidence:c i)
        (W.Restaurant.noisy_rules inst rng ~noise:20)
    in
    eval
      (Baselines.Heuristic.run ~threshold:0.5 ~r:inst.r ~s:inst.s
         ~key:inst.key rules)
        .matched
  in
  let user_map =
    eval (Baselines.User_map.run (Baselines.User_map.of_truth truth) inst.r inst.s)
  in
  print_string
    (R.Pretty.render_rows ~header
       [
         metrics_row "ILFD + extended key (ours)" ours [];
         metrics_row "key equality on name" name_eq [];
         metrics_row "probabilistic attribute equiv." prob_attr [];
         metrics_row "heuristic rules (noisy)" heuristic [];
         metrics_row "user-specified map (oracle)" user_map [];
       ]);
  Printf.printf
    "  shape: ours is the only automatic technique with precision 1.0;\n\
    \  the user map needs %d hand-maintained entries to do the same.\n"
    (Baselines.User_map.size (Baselines.User_map.of_truth truth))

(* ---- ILFD coverage sweep ---- *)

let coverage () =
  banner "ILFD coverage sweep (n=120, homonyms=15%)";
  let rows =
    List.map
      (fun coverage ->
        let inst =
          W.Restaurant.generate
            {
              W.Restaurant.default with
              n_entities = 120;
              seed = 7;
              homonym_rate = 0.15;
              spec_ilfd_coverage = coverage;
              entity_ilfd_coverage = coverage;
              street_ilfd_coverage = coverage;
            }
        in
        let m =
          W.Metrics.evaluate ~truth:inst.truth
            (E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
              .matching_table
        in
        [ Printf.sprintf "%.0f%%" (coverage *. 100.0);
          string_of_int (List.length inst.ilfds);
          Printf.sprintf "%.3f" m.precision;
          Printf.sprintf "%.3f" m.recall ])
      [ 0.2; 0.4; 0.6; 0.8; 1.0 ]
  in
  print_string
    (R.Pretty.render_rows
       ~header:[ "coverage"; "#ILFDs"; "precision"; "recall" ]
       rows);
  print_endline
    "  shape: precision pinned at 1.000 (soundness); recall grows with\n\
    \  coverage — the Figure 3 story at scale."

(* ---- homonym sweep ---- *)

let homonyms () =
  banner "Homonym-rate sweep (n=120, full ILFD coverage)";
  let rows =
    List.map
      (fun rate ->
        let inst =
          W.Restaurant.generate
            {
              W.Restaurant.default with
              n_entities = 120;
              seed = 13;
              homonym_rate = rate;
            }
        in
        let ours =
          W.Metrics.evaluate ~truth:inst.truth
            (E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
              .matching_table
        in
        let name_eq =
          W.Metrics.evaluate ~truth:inst.truth
            (Baselines.Key_equiv.run_on_attributes ~attrs:[ "name" ] inst.r
               inst.s)
        in
        [ Printf.sprintf "%.0f%%" (rate *. 100.0);
          Printf.sprintf "%.3f" ours.precision;
          Printf.sprintf "%.3f" name_eq.precision;
          string_of_int
            (List.length
               (W.Metrics.soundness_violations ~truth:inst.truth
                  (Baselines.Key_equiv.run_on_attributes ~attrs:[ "name" ]
                     inst.r inst.s))) ])
      [ 0.0; 0.1; 0.2; 0.3; 0.4 ]
  in
  print_string
    (R.Pretty.render_rows
       ~header:
         [ "homonyms"; "ours precision"; "name-eq precision";
           "name-eq false matches" ]
       rows);
  print_endline
    "  shape: name equality degrades with instance-level homonyms (the\n\
    \  paper's Section 2 problem); the extended key is immune."

(* ---- scale sweep ---- *)

let scale () =
  banner "Scale sweep: matching-table construction time";
  let rows =
    List.map
      (fun n ->
        let inst =
          W.Restaurant.generate
            { W.Restaurant.default with n_entities = n; seed = 31 }
        in
        let o, t_direct =
          time_once (fun () ->
              E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
        in
        let _, t_algebraic =
          time_once (fun () ->
              E.Algebraic.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
        in
        [ string_of_int n;
          string_of_int (E.Matching_table.cardinality o.matching_table);
          Printf.sprintf "%.1f ms" (t_direct *. 1000.0);
          Printf.sprintf "%.1f ms" (t_algebraic *. 1000.0) ])
      [ 100; 200; 400; 800; 1600 ]
  in
  print_string
    (R.Pretty.render_rows
       ~header:[ "entities"; "matches"; "direct engine"; "algebraic" ]
       rows);
  print_endline
    "  shape: both constructions scale near-linearly (hash join); the\n\
    \  algebraic path pays the saturation + outer-join overhead."

(* ---- chain depth sweep ---- *)

let depth () =
  banner "Derivation-depth sweep (chain workload, n=60)";
  let rows =
    List.map
      (fun d ->
        let inst =
          W.Chain.generate
            { W.Chain.default with n_entities = 60; depth = d }
        in
        let o, t =
          time_once (fun () ->
              E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
        in
        let m = W.Metrics.evaluate ~truth:inst.truth o.matching_table in
        [ string_of_int d;
          string_of_int (List.length inst.ilfds);
          Printf.sprintf "%.3f" m.precision;
          Printf.sprintf "%.3f" m.recall;
          Printf.sprintf "%.1f ms" (t *. 1000.0) ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  print_string
    (R.Pretty.render_rows
       ~header:[ "depth"; "#ILFDs"; "precision"; "recall"; "time" ]
       rows);
  print_endline
    "  shape: recall and precision stay at 1.0 at any depth; cost grows\n\
    \  with rule count, not combinatorially with depth."

(* ---- conflict-mode ablation ---- *)

let conflict_modes () =
  banner "Ablation: cut semantics vs conflict checking";
  let agreeing = W.Paper_data.ilfds_i1_i8 in
  let conflicting =
    agreeing @ [ Ilfd.parse "speciality = Hunan -> cuisine = Cantonese" ]
  in
  let run mode ilfds =
    match
      E.Identify.run ~mode ~r:W.Paper_data.table5_r ~s:W.Paper_data.table5_s
        ~key:W.Paper_data.example3_key ilfds
    with
    | o ->
        Printf.sprintf "%d matches"
          (E.Matching_table.cardinality o.matching_table)
    | exception Ilfd.Apply.Conflict_found c ->
        Printf.sprintf "conflict on %s" c.attribute
  in
  print_string
    (R.Pretty.render_rows
       ~header:[ "rule set"; "First_rule (cut)"; "Check_conflicts" ]
       [
         [ "I1-I8 (consistent)";
           run Ilfd.Apply.First_rule agreeing;
           run Ilfd.Apply.Check_conflicts agreeing ];
         [ "I1-I8 + contradictory I1'";
           run Ilfd.Apply.First_rule conflicting;
           run Ilfd.Apply.Check_conflicts conflicting ];
       ]);
  print_endline
    "  shape: the prototype's cut silently prefers the first rule; the\n\
    \  checking mode surfaces the contradiction instead."

(* ---- dirty-data crossover ---- *)

let typos () =
  banner "Dirty-data sweep: typos in R.name (n=120, full rules)";
  let rows =
    List.map
      (fun rate ->
        let inst =
          W.Restaurant.generate
            {
              W.Restaurant.default with
              n_entities = 120;
              seed = 53;
              typo_rate = rate;
            }
        in
        let ours =
          W.Metrics.evaluate ~truth:inst.truth
            (E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds)
              .matching_table
        in
        let fuzzy =
          let o =
            Baselines.Prob_attr.run
              ~config:
                { Baselines.Prob_attr.default_config with upper = 0.85 }
              inst.r inst.s
          in
          W.Metrics.evaluate ~truth:inst.truth o.matched
        in
        [ Printf.sprintf "%.0f%%" (rate *. 100.0);
          Printf.sprintf "%.3f" ours.precision;
          Printf.sprintf "%.3f" ours.recall;
          Printf.sprintf "%.3f" fuzzy.precision;
          Printf.sprintf "%.3f" fuzzy.recall ])
      [ 0.0; 0.1; 0.2; 0.4 ]
  in
  print_string
    (R.Pretty.render_rows
       ~header:
         [ "typos"; "ours P"; "ours R"; "fuzzy-attr P"; "fuzzy-attr R" ]
       rows);
  print_endline
    "  shape: the crossover the paper leaves implicit — exact semantic\n\
    \  matching loses recall on dirty identifiers (rules reference clean\n\
    \  values) but never precision; string-similarity matching keeps\n\
    \  recall on typos yet admits erroneous matches. Sound-by-design vs\n\
    \  robust-by-heuristic is a genuine trade-off on dirty data."

(* ---- F+ growth (the paper's 'expensive to compute' remark) ---- *)

let closure_growth () =
  banner "Closure growth: |F+| vs closure-query cost (Section 5)";
  let rows =
    List.map
      (fun n ->
        (* A fully connected value graph: ai=v -> a(i+1)=v for 2 values,
           plus cross rules. F+ blows up; X+ queries stay linear. *)
        let ilfds =
          List.concat_map
            (fun i ->
              List.concat_map
                (fun value ->
                  [ Ilfd.parse
                      (Printf.sprintf "a%d = %s -> a%d = %s" i value (i + 1)
                         value) ])
                [ "u"; "w" ])
            (List.init n Fun.id)
        in
        let clauses = Ilfd.Encode.clauses ilfds in
        (* Count entailed single-consequent clauses with antecedents
           drawn from the mentioned symbols (a bounded probe of F+). *)
        let symbols =
          Proplogic.Semantics.universe clauses Proplogic.Symbol.Set.empty
          |> Proplogic.Symbol.Set.elements
        in
        let entailed_pairs =
          List.length
            (List.concat_map
               (fun p ->
                 List.filter
                   (fun q ->
                     (not (String.equal p q))
                     && Proplogic.Infer.entails clauses
                          (Proplogic.Clause.make [ p ] [ q ]))
                   symbols)
               symbols)
        in
        let _, t_query =
          time_once (fun () ->
              List.iter
                (fun p ->
                  ignore
                    (Proplogic.Infer.closure clauses
                       (Proplogic.Symbol.set_of_list [ p ])))
                symbols)
        in
        [ string_of_int (List.length ilfds);
          string_of_int (List.length symbols);
          string_of_int entailed_pairs;
          Printf.sprintf "%.2f ms" (t_query *. 1000.0) ])
      [ 4; 8; 16; 32 ]
  in
  print_string
    (R.Pretty.render_rows
       ~header:
         [ "#ILFDs"; "#symbols"; "entailed 1-1 clauses"; "all X+ queries" ]
       rows);
  print_endline
    "  shape: the paper notes F+ is 'expensive to compute' while X+ is\n\
    \  'relatively easier' — entailed-clause counts grow quadratically\n\
    \  (and full F+ exponentially) while per-query closures stay cheap."

(* ---- incremental vs batch under federated updates ---- *)

let incremental () =
  banner "Ablation: incremental engine vs batch recomputation per insert";
  let rows =
    List.map
      (fun n ->
        let inst =
          W.Restaurant.generate
            { W.Restaurant.default with n_entities = n; seed = 47 }
        in
        (* Stream the last 50 R tuples into a state holding the rest. *)
        let all_r = R.Relation.tuples inst.r in
        let keep = List.length all_r - 50 in
        let base_r =
          R.Relation.of_tuples (R.Relation.schema inst.r)
            ~keys:(R.Relation.declared_keys inst.r)
            (List.filteri (fun i _ -> i < keep) all_r)
        in
        let stream = List.filteri (fun i _ -> i >= keep) all_r in
        let t0 =
          E.Incremental.create ~r:base_r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let _, t_incr =
          time_once (fun () ->
              List.iter
                (fun tuple -> ignore (E.Incremental.insert_r t0 tuple))
                stream)
        in
        let _, t_batch =
          time_once (fun () ->
              List.fold_left
                (fun r tuple ->
                  let r = R.Relation.add r tuple in
                  ignore
                    (E.Identify.run ~r ~s:inst.s ~key:inst.key inst.ilfds);
                  r)
                base_r stream)
        in
        [ string_of_int n;
          Printf.sprintf "%.2f ms" (t_incr *. 1000.0);
          Printf.sprintf "%.2f ms" (t_batch *. 1000.0);
          Printf.sprintf "%.0fx" (t_batch /. Float.max t_incr 1e-9) ])
      [ 200; 400; 800 ]
  in
  print_string
    (R.Pretty.render_rows
       ~header:
         [ "entities"; "incremental (50 inserts)"; "batch re-run per insert";
           "speedup" ]
       rows);
  print_endline
    "  shape: per-insert maintenance extends one tuple and probes a hash\n\
    \  index; re-running the pipeline re-derives everything — the gap\n\
    \  widens with n."

let all () =
  baselines ();
  coverage ();
  homonyms ();
  scale ();
  depth ();
  conflict_modes ();
  typos ();
  closure_growth ();
  incremental ()
