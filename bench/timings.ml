(* Bechamel micro-benchmarks. One Test.make per table/figure pipeline
   plus the ablation pairs DESIGN.md calls out (direct vs algebraic vs
   Prolog construction; hash vs nested-loop join; fast vs naive closure;
   forward chaining vs DPLL). Results print as ns/run (OLS estimate). *)

open Bechamel
open Toolkit

module R = Relational
module E = Entity_id
module PD = Workload.Paper_data

let run_tests ~quota tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  Benchmark.all cfg [ Instance.monotonic_clock ] tests

let report raw =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  print_string
    (R.Pretty.render_rows
       ~header:[ "benchmark"; "time/run" ]
       (List.map
          (fun (name, ns) ->
            let pretty =
              if Float.is_nan ns then "n/a"
              else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; pretty ])
          rows))

(* Workload fixtures, built once. *)

let medium =
  Workload.Restaurant.generate
    { Workload.Restaurant.default with n_entities = 150; seed = 21 }

let small =
  Workload.Restaurant.generate
    { Workload.Restaurant.default with n_entities = 40; seed = 22 }

let chain5 =
  Workload.Chain.generate
    { Workload.Chain.default with n_entities = 40; depth = 5 }

let paper_pipeline_tests =
  Test.make_grouped ~name:"paper" ~fmt:"%s %s"
    [
      Test.make ~name:"t3:example2-identify"
        (Staged.stage (fun () ->
             E.Identify.run ~r:PD.table2_r ~s:PD.table2_s
               ~key:PD.example2_key [ PD.example2_ilfd ]));
      Test.make ~name:"t7:example3-identify"
        (Staged.stage (fun () ->
             E.Identify.run ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key PD.ilfds_i1_i8));
      Test.make ~name:"t4:example2-negative"
        (Staged.stage (fun () ->
             E.Negative.of_ilfds ~r:PD.table2_r ~s:PD.table2_s
               [ PD.example2_ilfd ]));
      Test.make ~name:"t6:extend-relations"
        (Staged.stage (fun () ->
             let target =
               E.Identify.extension_schema PD.table5_r PD.example3_key
             in
             Ilfd.Fixpoint.extend_relation PD.table5_r ~target
               (Ilfd.Apply.compile PD.ilfds_i1_i8)));
      Test.make ~name:"t8:ilfd-tables"
        (Staged.stage (fun () -> Ilfd.Table.of_ilfds PD.ilfds_i1_i8));
      Test.make ~name:"f3:monotonic-snapshot"
        (Staged.stage (fun () ->
             E.Monotonic.snapshot
               (E.Monotonic.add_ilfds
                  (E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
                     ~key:PD.example3_key ())
                  PD.ilfds_i1_i8)));
      Test.make ~name:"f4:integrated-table"
        (Staged.stage
           (let res =
              E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s
                ~key:PD.example3_key PD.ilfds_i1_i8
            in
            fun () -> E.Integrate.integrated_table res));
      Test.make ~name:"s6:prolog-session-mt"
        (Staged.stage (fun () ->
             Prototype.Bridge.matching_table ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key PD.ilfds_i1_i8));
    ]

let ablation_pipeline_tests =
  Test.make_grouped ~name:"pipeline(n=150)" ~fmt:"%s %s"
    [
      Test.make ~name:"direct-engine"
        (Staged.stage (fun () ->
             E.Identify.run ~r:medium.r ~s:medium.s ~key:medium.key
               medium.ilfds));
      Test.make ~name:"algebraic"
        (Staged.stage (fun () ->
             E.Algebraic.run ~r:medium.r ~s:medium.s ~key:medium.key
               medium.ilfds));
    ]

let ablation_prolog_tests =
  Test.make_grouped ~name:"pipeline(n=40)" ~fmt:"%s %s"
    [
      Test.make ~name:"direct-engine"
        (Staged.stage (fun () ->
             E.Identify.run ~r:small.r ~s:small.s ~key:small.key small.ilfds));
      Test.make ~name:"prolog-bridge"
        (Staged.stage (fun () ->
             Prototype.Bridge.matching_table ~r:small.r ~s:small.s
               ~key:small.key small.ilfds));
    ]

let join_left =
  R.Relation.create
    (R.Schema.of_names [ "a"; "b" ])
    (List.init 300 (fun i ->
         [ R.Value.int i; R.Value.string (Workload.Pools.name i) ]))

let join_right =
  R.Relation.create
    (R.Schema.of_names [ "c"; "d" ])
    (List.init 300 (fun i ->
         [ R.Value.string (Workload.Pools.name i); R.Value.int (i * 2) ]))

let ablation_join_tests =
  Test.make_grouped ~name:"join(300x300)" ~fmt:"%s %s"
    [
      Test.make ~name:"hash-equi-join"
        (Staged.stage (fun () ->
             R.Algebra.equi_join ~on:[ ("b", "c") ] join_left join_right));
      Test.make ~name:"nested-loop-theta"
        (Staged.stage (fun () ->
             R.Algebra.theta_join
               (R.Predicate.eq_attr "b" "c")
               join_left join_right));
    ]

(* A long implication chain stresses the closure engines. *)
let chain_clauses =
  List.init 300 (fun i ->
      Proplogic.Clause.make
        [ Printf.sprintf "p%d" i ]
        [ Printf.sprintf "p%d" (i + 1) ])

let chain_start = Proplogic.Symbol.set_of_list [ "p0" ]

let chain_goal =
  Proplogic.Clause.make [ "p0" ] [ "p300" ]

let ablation_closure_tests =
  Test.make_grouped ~name:"closure(300-chain)" ~fmt:"%s %s"
    [
      Test.make ~name:"forward-chaining-indexed"
        (Staged.stage (fun () ->
             Proplogic.Infer.closure chain_clauses chain_start));
      Test.make ~name:"forward-chaining-naive"
        (Staged.stage (fun () ->
             Proplogic.Infer.closure_naive chain_clauses chain_start));
      Test.make ~name:"entails-dpll"
        (Staged.stage (fun () ->
             Proplogic.Dpll.entails chain_clauses chain_goal));
    ]

let derivation_tests =
  Test.make_grouped ~name:"derivation" ~fmt:"%s %s"
    [
      Test.make ~name:"chain-depth5-identify"
        (Staged.stage (fun () ->
             E.Identify.run ~r:chain5.r ~s:chain5.s ~key:chain5.key
               chain5.ilfds));
      Test.make ~name:"saturate-I1-I8"
        (Staged.stage (fun () -> Ilfd.Theory.saturate PD.ilfds_i1_i8));
      Test.make ~name:"minimal-cover-I1-I8"
        (Staged.stage (fun () -> Ilfd.Theory.minimal_cover PD.ilfds_i1_i8));
    ]

let all () =
  print_endline "\n================ Bechamel timings ================";
  print_endline "(OLS estimate of time per run; see DESIGN.md section 5)";
  List.iter
    (fun (quota, tests) -> report (run_tests ~quota tests))
    [
      (0.25, paper_pipeline_tests);
      (0.5, ablation_pipeline_tests);
      (0.5, ablation_prolog_tests);
      (0.5, ablation_join_tests);
      (0.25, ablation_closure_tests);
      (0.5, derivation_tests);
    ]
