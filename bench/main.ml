(* Bench harness entry point.

     dune exec bench/main.exe              run everything
     dune exec bench/main.exe -- table3    one experiment
     dune exec bench/main.exe -- list      show experiment ids

   Experiment ids mirror DESIGN.md's index: table1..table8, fig1..fig4,
   session, sweep, timings. *)

let experiments =
  [
    ("table1", Paper_tables.table1);
    ("table2", Paper_tables.table2);
    ("table3", Paper_tables.table3);
    ("table4", Paper_tables.table4);
    ("table5", Paper_tables.table5);
    ("table6", Paper_tables.table6);
    ("table7", Paper_tables.table7);
    ("table8", Paper_tables.table8);
    ("fig1", Paper_tables.fig1);
    ("fig2", Paper_tables.fig2);
    ("fig3", Paper_tables.fig3);
    ("fig4", Paper_tables.fig4);
    ("session", Paper_tables.session);
    ("sweep", Sweeps.all);
    ("timings", Timings.all);
    ("partition", Partition_bench.all);
  ]

let run_all () =
  Paper_tables.all ();
  Sweeps.all ();
  Timings.all ();
  Partition_bench.all ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> run_all ()
  | [ _; "list" ] ->
      List.iter (fun (name, _) -> print_endline name) experiments
  | [ _; name ] -> (
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf
            "unknown experiment %S; try `list` for the available ids\n" name;
          exit 2)
  | _ ->
      prerr_endline "usage: main.exe [experiment-id|list]";
      exit 2
