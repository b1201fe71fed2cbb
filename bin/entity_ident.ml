(* entity_ident — command-line front end.

   Subcommands:
     identify   run the ILFD/extended-key pipeline on two CSV relations
     closure    print the condition closure X+ under a rule file
     cover      print a minimal cover of a rule file
     mine       mine candidate ILFDs from a relation instance
     fuse       identify + resolve attribute-value conflicts -> one CSV
     session    replay the paper's Section 6 Prolog session on given data
     check      differential/metamorphic correctness harness (seeded)
     soak       long-running check with progress reporting
     serve      durable JSON request loop over a WAL+snapshot store
     store-dump decode a store WAL as a replayable request stream

   A rules file holds one ILFD per line in the concrete syntax
   "attr = value & attr = value -> attr = value"; blank lines and lines
   starting with # are ignored. *)

open Cmdliner

let read_rules path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      In_channel.input_lines ic
      |> List.filteri (fun _ line ->
             let t = String.trim line in
             t <> "" && not (String.length t > 0 && t.[0] = '#'))
      |> List.map Ilfd.parse)

let parse_key_list s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun a -> a <> "")

(* Malformed input is a usage error naming the file and the problem
   (exit 2), never an uncaught exception. *)
let load_relation path key =
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "entity_ident: %s: %s@." path msg;
        exit 2)
      fmt
  in
  match Relational.Csv_io.load ~keys:[ parse_key_list key ] path with
  | rel -> rel
  | exception Relational.Csv_io.Parse_error { line; message } ->
      fail "line %d: %s" line message
  | exception Relational.Schema.Unknown_attribute a ->
      fail "key attribute %S is not a column" a
  | exception Relational.Relation.Key_violation { key; tuple } ->
      let schema = Relational.Relation.schema (Relational.Csv_io.load path) in
      fail "row %a has a %s on key (%s)" Relational.Tuple.pp tuple
        (if Relational.Tuple.has_null (Relational.Tuple.project schema tuple key)
         then "NULL value"
         else "duplicate value")
        (String.concat "," key)

(* ---- common args ---- *)

let r_file =
  Arg.(required & opt (some file) None & info [ "left" ] ~docv:"CSV"
         ~doc:"Left relation (CSV with header row).")

let s_file =
  Arg.(required & opt (some file) None & info [ "right" ] ~docv:"CSV"
         ~doc:"Right relation (CSV with header row).")

let r_key_arg =
  Arg.(required & opt (some string) None & info [ "r-key" ] ~docv:"ATTRS"
         ~doc:"Comma-separated candidate key of the left relation.")

let s_key_arg =
  Arg.(required & opt (some string) None & info [ "s-key" ] ~docv:"ATTRS"
         ~doc:"Comma-separated candidate key of the right relation.")

let rules_file =
  Arg.(value & opt (some file) None & info [ "rules" ] ~docv:"FILE"
         ~doc:"ILFD rules file (one rule per line).")

let extkey_arg =
  Arg.(required & opt (some string) None & info [ "key" ] ~docv:"ATTRS"
         ~doc:"Comma-separated extended key.")

(* 0 means "one domain per host core" (make -j convention); a negative
   count is a usage error, rejected at parse time rather than silently
   treated as "all cores". *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ ->
        Error (`Msg "--jobs must be >= 0 (0 = one domain per host core)")
    | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(value & opt jobs_conv 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Run the identification pipeline on $(docv) domains \
               (default 1 = serial; 0 = one per host core). \
               The result is identical for every value.")

(* One resolution rule for every front end: the library's. The CLI's 0
   means "default" (make -j convention) and maps to [None]; the library
   itself raises on non-positive counts. *)
let resolve_jobs n = Parallel.resolve (if n = 0 then None else Some n)

let stats_arg =
  Arg.(value
       & opt ~vopt:(Some `Pretty)
           (some (enum [ ("json", `Json); ("pretty", `Pretty) ]))
           None
       & info [ "stats" ] ~docv:"FORMAT"
           ~doc:"Collect pipeline telemetry (phase timings, candidate-pair \
                 reduction, fixpoint rounds and class sharing) and print it \
                 after the normal \
                 output; $(docv) is json or pretty (plain --stats means \
                 pretty).")

let telemetry_of = function
  | None -> Telemetry.off
  | Some _ -> Telemetry.create ()

let print_stats fmt telemetry =
  match fmt with
  | None -> ()
  | Some `Json -> print_endline (Telemetry.to_json telemetry)
  | Some `Pretty -> Format.printf "%a@." Telemetry.pp telemetry

let setup r s rk sk rules_path =
  let r = load_relation r rk and s = load_relation s sk in
  let ilfds = match rules_path with None -> [] | Some p -> read_rules p in
  (r, s, ilfds)

(* ---- streaming output ---- *)

(* One matched (r', s') pair per output record, written as the join
   produces it — the emitter never holds more than the current record. *)
let pair_emitter oc format ~r_names ~s_names =
  match format with
  | `Ndjson ->
      let side names t =
        Eid_store.Json.Obj
          (List.mapi
             (fun k name ->
               let v = Relational.Tuple.nth t k in
               (name, Eid_store.Service.json_of_value v))
             names)
      in
      fun tr ts ->
        output_string oc
          (Eid_store.Json.to_string
             (Obj [ ("r", side r_names tr); ("s", side s_names ts) ]));
        output_char oc '\n'
  | `Csv ->
      let cell = Relational.Csv_io.escape_cell in
      output_string oc
        (String.concat ","
           (List.map (fun a -> cell ("r." ^ a)) r_names
           @ List.map (fun a -> cell ("s." ^ a)) s_names));
      output_char oc '\n';
      let cells names t =
        List.mapi
          (fun k _ ->
            cell (Relational.Value.to_string (Relational.Tuple.nth t k)))
          names
      in
      fun tr ts ->
        output_string oc
          (String.concat "," (cells r_names tr @ cells s_names ts));
        output_char oc '\n'

(* ---- identify ---- *)

let identify_cmd =
  let show =
    Arg.(value & opt (enum [ ("mt", `Mt); ("integrated", `Integrated);
                             ("extended", `Extended); ("all", `All) ])
           `All
         & info [ "show" ] ~doc:"What to print: mt, integrated, extended, all.")
  in
  let negative =
    Arg.(value & flag & info [ "negative" ]
           ~doc:"Also print the negative matching table (Proposition 1).")
  in
  let check_conflicts =
    Arg.(value & flag & info [ "check-conflicts" ]
           ~doc:"Fail when two ILFDs disagree on a derived value.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Print, for each match, the ILFD derivations behind it.")
  in
  let stream_out =
    Arg.(value & opt (some string) None
         & info [ "stream-out" ] ~docv:"PATH"
             ~doc:"Stream matched pairs to $(docv) ('-' = stdout) as the \
                   join produces them, instead of rendering the tables: \
                   peak memory is the join state, never the match count. \
                   Replaces --show output and skips the uniqueness \
                   verification (which would materialise the matching \
                   table).")
  in
  let stream_format =
    Arg.(value & opt (enum [ ("ndjson", `Ndjson); ("csv", `Csv) ]) `Ndjson
         & info [ "stream-format" ] ~docv:"FMT"
             ~doc:"Streamed record format: ndjson (one \
                   {\"r\":{...},\"s\":{...}} object per line, default) or \
                   csv (header row of r.*/s.* columns).")
  in
  let run r s rk sk rules key jobs stats show negative check_conflicts
      explain stream_out stream_format =
    let r, s, ilfds = setup r s rk sk rules in
    let key = Entity_id.Extended_key.make (parse_key_list key) in
    let jobs = resolve_jobs jobs in
    let telemetry = telemetry_of stats in
    let mode =
      if check_conflicts then Ilfd.Apply.Check_conflicts
      else Ilfd.Apply.First_rule
    in
    match stream_out with
    | Some dest ->
        (* A consumer hanging up must surface as Sys_error (EPIPE), not
           kill the process silently with SIGPIPE. *)
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ -> ());
        let stream oc =
          let r_names =
            Relational.Schema.names
              (Entity_id.Identify.extension_schema r key)
          and s_names =
            Relational.Schema.names
              (Entity_id.Identify.extension_schema s key)
          in
          let emit = pair_emitter oc stream_format ~r_names ~s_names in
          Entity_id.Identify.run_stream ~mode ~jobs ~telemetry ~r ~s ~key
            ~init:0
            ~f:(fun n tr ts ->
              emit tr ts;
              n + 1)
            ilfds
        in
        let count =
          (* To a file: write PATH.tmp and rename only after every record
             flushed cleanly, so a crash, ENOSPC or EPIPE can never leave
             a truncated PATH that looks complete. *)
          match
            if dest = "-" then (
              let n = stream stdout in
              Stdlib.flush stdout;
              n)
            else Eid_store.Fsutil.with_atomic_out dest stream
          with
          | n -> n
          | exception Ilfd.Apply.Conflict_found c ->
              Format.eprintf "entity_ident: %a@." Ilfd.Apply.pp_conflict c;
              exit 2
          | exception Sys_error m ->
              Format.eprintf "entity_ident: cannot stream to %s: %s@."
                (if dest = "-" then "stdout" else dest)
                m;
              exit 3
        in
        (* The summary must not corrupt a stream going to stdout. *)
        let ppf =
          if dest = "-" then Format.err_formatter else Format.std_formatter
        in
        Format.fprintf ppf "streamed %d matched pair(s) to %s@." count
          (if dest = "-" then "stdout" else dest);
        print_stats stats telemetry
    | None ->
    let o =
      try
        Entity_id.Identify.run ~mode ~jobs ~telemetry ~r ~s ~key ilfds
      with Ilfd.Apply.Conflict_found c ->
        Format.eprintf "entity_ident: %a@." Ilfd.Apply.pp_conflict c;
        exit 2
    in
    let print_extended () =
      print_string (Relational.Pretty.render ~title:"R'" o.r_extended);
      print_newline ();
      print_string (Relational.Pretty.render ~title:"S'" o.s_extended);
      print_newline ()
    in
    let print_mt () =
      print_string
        (Relational.Pretty.render ~title:"matching table"
           (Entity_id.Matching_table.to_relation o.matching_table));
      print_newline ()
    in
    let print_integrated () =
      print_string
        (Relational.Pretty.render ~title:"integrated table"
           (Entity_id.Integrate.integrated_table ~key o));
      print_newline ()
    in
    (match show with
    | `Mt -> print_mt ()
    | `Integrated -> print_integrated ()
    | `Extended -> print_extended ()
    | `All ->
        print_extended ();
        print_mt ();
        print_integrated ());
    if negative then begin
      let nmt =
        Entity_id.Negative.of_ilfds ~r:o.r_extended ~s:o.s_extended ilfds
      in
      print_string
        (Relational.Pretty.render ~title:"negative matching table"
           (Entity_id.Matching_table.to_relation nmt));
      print_newline ()
    end;
    if explain then begin
      print_endline "explanations:";
      print_string
        (Entity_id.Explain.render
           (Entity_id.Explain.matches ~mode ~r ~s ~key ilfds))
    end;
    let report = Entity_id.Verify.check o.matching_table in
    Format.printf "%a@." Entity_id.Verify.pp_report report;
    print_stats stats telemetry;
    if not (Entity_id.Verify.is_sound_wrt_constraints report) then exit 1
  in
  Cmd.v
    (Cmd.info "identify" ~doc:"Run extended-key + ILFD entity identification.")
    Term.(const run $ r_file $ s_file $ r_key_arg $ s_key_arg $ rules_file
          $ extkey_arg $ jobs_arg $ stats_arg $ show $ negative
          $ check_conflicts $ explain $ stream_out $ stream_format)

(* ---- closure ---- *)

let closure_cmd =
  let given =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CONDITIONS"
           ~doc:"Conditions, e.g. \"speciality = Hunan & name = X\".")
  in
  let run rules given =
    let ilfds = match rules with None -> [] | Some p -> read_rules p in
    let conds =
      String.split_on_char '&' given
      |> List.map (fun c ->
             match Ilfd.parse (c ^ " -> __x = __x") with
             | i -> List.hd (Ilfd.antecedent i)
             | exception Ilfd.Ill_formed m -> failwith m)
    in
    List.iter
      (fun (c : Ilfd.condition) ->
        Printf.printf "%s = %s\n" c.attribute
          (Relational.Value.to_string c.value))
      (Ilfd.Theory.closure ilfds conds)
  in
  Cmd.v
    (Cmd.info "closure"
       ~doc:"Print the closure X+ of conditions under the rule file.")
    Term.(const run $ rules_file $ given)

(* ---- cover ---- *)

let cover_cmd =
  let run rules =
    let ilfds = match rules with None -> [] | Some p -> read_rules p in
    List.iter
      (fun i -> print_endline (Ilfd.to_string i))
      (Ilfd.Theory.minimal_cover ilfds)
  in
  Cmd.v
    (Cmd.info "cover" ~doc:"Print a minimal cover of the rule file.")
    Term.(const run $ rules_file)

(* ---- mine ---- *)

let mine_cmd =
  let input =
    Arg.(required & opt (some file) None & info [ "from" ] ~docv:"CSV"
           ~doc:"Relation to mine (e.g. an audited sample of the \
                 integrated world).")
  in
  let lhs =
    Arg.(required & opt (some string) None & info [ "lhs" ] ~docv:"ATTRS"
           ~doc:"Comma-separated antecedent attributes.")
  in
  let rhs =
    Arg.(required & opt (some string) None & info [ "rhs" ] ~docv:"ATTR"
           ~doc:"Consequent attribute.")
  in
  let min_support =
    Arg.(value & opt int 2 & info [ "min-support" ] ~docv:"N"
           ~doc:"Minimum antecedent support (default 2).")
  in
  let min_confidence =
    Arg.(value & opt float 1.0 & info [ "min-confidence" ] ~docv:"C"
           ~doc:"Minimum confidence (default 1.0 = exact ILFDs only).")
  in
  let run input lhs rhs min_support min_confidence =
    let r = Relational.Csv_io.load input in
    let candidates =
      Ilfd.Mine.mine ~min_support ~min_confidence r
        ~lhs:(parse_key_list lhs) ~rhs
    in
    List.iter
      (fun c -> Format.printf "%a@." Ilfd.Mine.pp_candidate c)
      candidates;
    Format.printf "%d candidate(s)@." (List.length candidates)
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:"Mine candidate ILFDs from a relation (knowledge acquisition).")
    Term.(const run $ input $ lhs $ rhs $ min_support $ min_confidence)

(* ---- fuse ---- *)

let fuse_cmd =
  let policy_arg =
    Arg.(value
         & opt (enum [ ("non-null", `Non_null); ("left", `Left);
                       ("right", `Right) ])
             `Non_null
         & info [ "policy" ]
             ~doc:"Conflict policy: non-null (fail on true conflicts), \
                   left, right.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"CSV"
           ~doc:"Write the fused relation to a CSV file (default: print).")
  in
  let run r s rk sk rules key jobs stats policy output =
    let r, s, ilfds = setup r s rk sk rules in
    let key = Entity_id.Extended_key.make (parse_key_list key) in
    let telemetry = telemetry_of stats in
    let o =
      Entity_id.Identify.run ~jobs:(resolve_jobs jobs) ~telemetry ~r ~s ~key
        ilfds
    in
    let conflicts = Entity_id.Fusion.conflicts o in
    List.iter
      (fun (attr, l, rt, k) ->
        Format.eprintf "conflict on %s: %s vs %s for %a@." attr
          (Relational.Value.to_string l)
          (Relational.Value.to_string rt)
          Relational.Tuple.pp k)
      conflicts;
    let default =
      match policy with
      | `Non_null -> Entity_id.Fusion.Prefer_non_null
      | `Left -> Entity_id.Fusion.Prefer_left
      | `Right -> Entity_id.Fusion.Prefer_right
    in
    (match Entity_id.Fusion.fuse ~default o with
    | fused -> (
        match output with
        | Some path -> Relational.Csv_io.save fused path
        | None -> print_string (Relational.Pretty.render fused))
    | exception Entity_id.Fusion.Inconsistent { attribute; _ } ->
        Format.eprintf
          "fusion failed: unresolved conflict on %s (try --policy)@."
          attribute;
        exit 1);
    print_stats stats telemetry
  in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:"Identify entities, resolve attribute-value conflicts, and \
             emit the actually-integrated relation.")
    Term.(const run $ r_file $ s_file $ r_key_arg $ s_key_arg $ rules_file
          $ extkey_arg $ jobs_arg $ stats_arg $ policy_arg $ output)

(* ---- session ---- *)

let session_cmd =
  let run r s rk sk rules key =
    let r, s, ilfds = setup r s rk sk rules in
    let key = Entity_id.Extended_key.make (parse_key_list key) in
    print_string (Prototype.Session.setup_extkey_transcript ~r ~s ~key ilfds);
    print_newline ();
    print_string (Prototype.Session.matchtable_session ~r ~s ~key ilfds);
    print_newline ();
    print_string (Prototype.Session.integrated_session ~r ~s ~key ilfds)
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Replay the paper's Prolog-session output on the given data.")
    Term.(const run $ r_file $ s_file $ r_key_arg $ s_key_arg $ rules_file
          $ extkey_arg)

(* ---- check / soak ---- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
         ~doc:"First scenario seed; scenario $(i,i) uses seed N+i, so a \
               failing seed replays alone with --seed SEED --scenarios 1.")

let family_conv =
  let parse s =
    match Checker.Scenario.kind_of_string s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario family %S (one of: %s)" s
                (String.concat ", "
                   (List.map Checker.Scenario.kind_to_string
                      Checker.Scenario.all_kinds))))
  in
  Arg.conv
    (parse, fun ppf k -> Format.pp_print_string ppf
                           (Checker.Scenario.kind_to_string k))

let family_arg =
  Arg.(value & opt (some family_conv) None
       & info [ "family" ] ~docv:"FAMILY"
           ~doc:"Scenario family to generate: restaurant (default), kdb \
                 (k-database integration), md (matching-dependency \
                 fixpoints), merge-policy (global vs local merge). Also \
                 filters --corpus replay to that family.")

let fault_conv =
  let parse s =
    match Checker.Oracle.fault_of_string s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown fault %S (one of: %s)" s
                (String.concat ", "
                   (List.map Checker.Oracle.fault_to_string
                      Checker.Oracle.all_faults))))
  in
  Arg.conv
    (parse, fun ppf f -> Format.pp_print_string ppf
                           (Checker.Oracle.fault_to_string f))

let fault_arg =
  Arg.(value & opt fault_conv Checker.Oracle.No_fault
       & info [ "fault" ] ~docv:"FAULT"
           ~doc:"Inject a seeded engine fault (mutation sanity check): the \
                 harness must catch it. One of none, broken-blocking-key, \
                 drop-last-pair, lost-insert, kdb-lost-edge, \
                 md-phantom-match, merge-rogue-pair.")

let shrink_arg =
  Arg.(value & opt ~vopt:true bool true & info [ "shrink" ] ~docv:"BOOL"
         ~doc:"Greedily minimise each counterexample before printing it \
               (default true; --shrink=false prints the raw scenario).")

let corpus_arg =
  Arg.(value & opt (some file) None & info [ "corpus" ] ~docv:"FILE"
         ~doc:"Also replay every seed listed in $(docv) (one \"SEED\" or \
               \"SEED FAMILY\" entry per line, # comments) before the \
               --seed/--scenarios range.")

let max_failures_arg =
  Arg.(value & opt int 1 & info [ "max-failures" ] ~docv:"M"
         ~doc:"Stop after $(docv) counterexamples (default 1; 0 = collect \
               them all).")

let run_checker ~progress family seed scenarios fault shrink corpus
    max_failures stats =
  let corpus_seeds =
    match corpus with
    | None -> []
    | Some path -> (
        match Checker.Harness.load_corpus path with
        | Ok seeds -> (
            (* --family narrows corpus replay to that family's entries;
               without it, the whole mixed corpus replays. *)
            match family with
            | None -> seeds
            | Some k -> List.filter (fun (k', _) -> k' = k) seeds)
        | Error msg ->
            Format.eprintf "entity_ident: %s@." msg;
            exit 2)
  in
  let range_family =
    Option.value family ~default:Checker.Scenario.Restaurant
  in
  let seeds =
    corpus_seeds
    @ Checker.Harness.seed_range ~family:range_family ~seed ~scenarios ()
  in
  let telemetry = telemetry_of stats in
  let max_failures = if max_failures = 0 then None else Some max_failures in
  let progress =
    if not progress then None
    else begin
      let every = max 1 (List.length seeds / 20) in
      Some
        (fun ~scenario ~total ~failures ->
          if scenario mod every = 0 || scenario = total then
            Format.eprintf "checker: scenario %d/%d, %d counterexample(s)@."
              scenario total failures)
    end
  in
  let outcome =
    Checker.Harness.run ~fault ~shrink ~telemetry ?progress ?max_failures
      ~seeds ()
  in
  Format.printf "%a@." Checker.Harness.pp_outcome outcome;
  print_stats stats telemetry;
  if not (Checker.Harness.ok outcome) then exit 1

let check_cmd =
  let scenarios_arg =
    Arg.(value & opt int 100 & info [ "scenarios" ] ~docv:"K"
           ~doc:"Number of generated scenarios (default 100).")
  in
  let run family seed scenarios fault shrink corpus max_failures stats =
    run_checker ~progress:false family seed scenarios fault shrink corpus
      max_failures stats
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the differential/metamorphic correctness harness: every \
             engine (naive, blocked, parallel, incremental, rule-driven, \
             clustering) must agree on every seeded scenario, constraints \
             and metamorphic laws must hold, and any counterexample is \
             shrunk to a minimal replayable scenario. Exits 1 on a \
             counterexample.")
    Term.(const run $ family_arg $ seed_arg $ scenarios_arg $ fault_arg
          $ shrink_arg $ corpus_arg $ max_failures_arg $ stats_arg)

let soak_cmd =
  let scenarios_arg =
    Arg.(value & opt int 1000 & info [ "scenarios" ] ~docv:"K"
           ~doc:"Number of generated scenarios (default 1000).")
  in
  let run family seed scenarios fault shrink corpus max_failures stats =
    run_checker ~progress:true family seed scenarios fault shrink corpus
      max_failures stats
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Long-running check: same harness, more scenarios, with \
             progress counters on stderr (add --stats for the telemetry \
             report).")
    Term.(const run $ family_arg $ seed_arg $ scenarios_arg $ fault_arg
          $ shrink_arg $ corpus_arg $ max_failures_arg $ stats_arg)

(* ---- serve / store-dump ---- *)

let store_dir_arg =
  Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Store directory (WAL, snapshot, config, lock).")

(* Rule lines kept verbatim (not parsed): the store persists the
   concrete syntax in config.json and hashes it for snapshot guards. *)
let read_rule_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      In_channel.input_lines ic
      |> List.map String.trim
      |> List.filter (fun t -> t <> "" && t.[0] <> '#'))

let serve_cmd =
  let opt_attrs name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"ATTRS" ~doc)
  in
  let r_schema = opt_attrs "r-schema" "Comma-separated attributes of R." in
  let s_schema = opt_attrs "s-schema" "Comma-separated attributes of S." in
  let r_key = opt_attrs "r-key" "Comma-separated candidate key of R." in
  let s_key = opt_attrs "s-key" "Comma-separated candidate key of S." in
  let ext_key = opt_attrs "key" "Comma-separated extended key." in
  let check_conflicts =
    Arg.(value & flag & info [ "check-conflicts" ]
           ~doc:"Record a conflict when two ILFDs disagree on a derived \
                 value (instead of first-rule-wins).")
  in
  let snapshot_every =
    Arg.(value & opt (some int) None & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Write a snapshot after every $(docv) mutating requests \
                 (plus on explicit {\"op\":\"snapshot\"} and on clean \
                 shutdown).")
  in
  let no_sync =
    Arg.(value & flag & info [ "no-sync" ]
           ~doc:"Skip fsync on commit (flush only). For tests and oracles \
                 that simulate crashes by truncation; real durability \
                 needs the default.")
  in
  let run dir r_schema s_schema r_key s_key ext_key rules check_conflicts
      snapshot_every no_sync stats =
    let config =
      match (r_schema, s_schema, r_key, s_key, ext_key) with
      | Some ra, Some sa, Some rk, Some sk, Some k ->
          Some
            {
              Eid_store.Store.r_attrs = parse_key_list ra;
              r_key = parse_key_list rk;
              s_attrs = parse_key_list sa;
              s_key = parse_key_list sk;
              key = parse_key_list k;
              rules =
                (match rules with None -> [] | Some p -> read_rule_lines p);
              check_conflicts;
            }
      | None, None, None, None, None -> None
      | _ ->
          Format.eprintf
            "entity_ident: give all of --r-schema --s-schema --r-key \
             --s-key --key (a new store), or none (recover an existing \
             one)@.";
          exit 2
    in
    let telemetry = telemetry_of stats in
    match
      Eid_store.Store.open_store ~telemetry ~sync:(not no_sync) ?config ~dir
        ()
    with
    | Error msg ->
        Format.eprintf "entity_ident: %s@." msg;
        exit 1
    | Ok st ->
        Fun.protect
          ~finally:(fun () -> Eid_store.Store.close st)
          (fun () ->
            Eid_store.Service.serve ?snapshot_every st stdin stdout);
        (* The protocol owns stdout; the report goes to stderr. *)
        (match stats with
        | None -> ()
        | Some `Json -> Format.eprintf "%s@." (Telemetry.to_json telemetry)
        | Some `Pretty -> Format.eprintf "%a@." Telemetry.pp telemetry)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Durable identification service: line-delimited JSON requests \
             (insert, identify, explain, merge, split, rollback, \
             snapshot, conflicts, stats) on stdin/stdout against a \
             write-ahead-logged store that recovers from crashes.")
    Term.(const run $ store_dir_arg $ r_schema $ s_schema $ r_key $ s_key
          $ ext_key $ rules_file $ check_conflicts $ snapshot_every
          $ no_sync $ stats_arg)

let store_dump_cmd =
  let run dir =
    let die msg =
      Format.eprintf "entity_ident: %s@." msg;
      exit 1
    in
    let config =
      match Eid_store.Store.read_config dir with
      | Ok c -> c
      | Error msg -> die msg
    in
    let ops =
      match Eid_store.Store.read_ops dir with
      | Ok ops -> ops
      | Error msg -> die msg
    in
    let key_obj attrs arr =
      Eid_store.Json.Obj
        (List.mapi
           (fun i name -> (name, Eid_store.Service.json_of_value arr.(i)))
           attrs)
    in
    let line j = print_endline (Eid_store.Json.to_string j) in
    let str s = Eid_store.Json.String s in
    List.iter
      (fun (op : Eid_store.Store.op) ->
        match op with
        | Op_insert_r row ->
            line
              (Obj
                 [ ("op", str "insert"); ("side", str "r");
                   ("row", key_obj config.r_attrs row) ])
        | Op_insert_s row ->
            line
              (Obj
                 [ ("op", str "insert"); ("side", str "s");
                   ("row", key_obj config.s_attrs row) ])
        | Op_merge { r_key; s_key } ->
            line
              (Obj
                 [ ("op", str "merge");
                   ("r_key", key_obj config.r_key r_key);
                   ("s_key", key_obj config.s_key s_key) ])
        | Op_split { r_key; s_key } ->
            line
              (Obj
                 [ ("op", str "split");
                   ("r_key", key_obj config.r_key r_key);
                   ("s_key", key_obj config.s_key s_key) ])
        | Op_rollback -> line (Obj [ ("op", str "rollback") ])
        | Op_conflict _ ->
            (* Conflicts are outcomes, not requests: re-playing the
               request stream regenerates them. *)
            ())
      ops
  in
  Cmd.v
    (Cmd.info "store-dump"
       ~doc:"Decode a store's write-ahead log and print it as the \
             serve-protocol request stream that reproduces it (conflict \
             records are skipped: replaying regenerates them). Reads the \
             WAL directly; does not take the store lock.")
    Term.(const run $ store_dir_arg)

let main =
  Cmd.group
    (Cmd.info "entity_ident" ~version:"1.0.0"
       ~doc:"Entity identification in database integration (Lim et al., \
             ICDE 1993).")
    [ identify_cmd; closure_cmd; cover_cmd; mine_cmd; fuse_cmd; session_cmd;
      check_cmd; soak_cmd; serve_cmd; store_dump_cmd ]

let () = exit (Cmd.eval main)
