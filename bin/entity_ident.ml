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

(* The optional rules file: each rule with its trimmed source line,
   which serve persists verbatim. A line that does not parse is a usage
   error naming the file and the line (exit 2), as malformed CSV is. *)
let read_rules = function
  | None -> []
  | Some path ->
      In_channel.with_open_text path In_channel.input_lines
      |> List.mapi (fun i line -> (i + 1, String.trim line))
      |> List.filter_map (fun (n, line) ->
             if line = "" || line.[0] = '#' then None
             else
               match Ilfd.parse line with
               | rule -> Some (line, rule)
               | exception Ilfd.Ill_formed reason ->
                   Format.eprintf "entity_ident: %s: line %d: %s@." path n
                     reason;
                   exit 2)

let parse_key_list s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun a -> a <> "")

(* Malformed input is a usage error naming the file and the problem
   (exit 2), never an uncaught exception. *)
let load_relation path ~keys =
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "entity_ident: %s: %s@." path msg;
        exit 2)
      fmt
  in
  match Relational.Csv_io.load ~keys path with
  | rel -> rel
  | exception Relational.Csv_io.Parse_error { line; message } ->
      fail "line %d: %s" line message
  | exception Relational.Schema.Unknown_attribute a ->
      fail "key attribute %S is not a column" a
  | exception Relational.Relation.Key_violation { key; tuple } ->
      let schema =
        Relational.Schema.of_names (Relational.Csv_io.header path)
      in
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

let stats_arg =
  Arg.(value
       & opt ~vopt:(Some `Pretty)
           (some (enum [ ("json", `Json); ("pretty", `Pretty) ]))
           None
       & info [ "stats" ] ~docv:"FORMAT"
           ~doc:"Collect pipeline telemetry (phase timings, join and \
                 fixpoint counters, class sharing) and print it after the \
                 normal output; $(docv) is json or pretty (plain --stats \
                 means pretty).")

let telemetry_of = function
  | None -> Telemetry.off
  | Some _ -> Telemetry.create ()

let print_stats fmt telemetry =
  match fmt with
  | None -> ()
  | Some `Json -> print_endline (Telemetry.to_json telemetry)
  | Some `Pretty -> Format.printf "%a@." Telemetry.pp telemetry

let setup ~telemetry r s rk sk rules_path =
  let load path key =
    Telemetry.span telemetry "relational.csv_load" (fun () ->
        load_relation path ~keys:[ parse_key_list key ])
  in
  let r = load r rk in
  let s = load s sk in
  let ilfds =
    Telemetry.span telemetry "ilfd.parse" (fun () ->
        List.map snd (read_rules rules_path))
  in
  (r, s, ilfds)

(* A write that fails (a full disk, a closed pipe, a missing directory)
   is a message naming the destination, and exit 3. When that is
   stdout, its unwritten bytes go to /dev/null, so that the flush at
   exit cannot fail again. *)
let output_failed ?(stdout = false) what dest m =
  Format.eprintf "entity_ident: cannot %s %s: %s@." what dest m;
  if stdout then begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.close null
  end;
  exit 3

(* [f]'s output to stdout, flushed before it returns. *)
let to_stdout f =
  match
    f ();
    Format.pp_print_flush Format.std_formatter ();
    flush stdout
  with
  | () -> ()
  | exception Sys_error m -> output_failed ~stdout:true "write to" "stdout" m

let print_table ?title rel =
  Relational.Pretty.output ?title stdout rel;
  print_newline ()

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
                   table). Combined with --negative or --explain, whose \
                   output it would drop, it exits 2.")
  in
  let stream_format =
    Arg.(value & opt (enum [ ("ndjson", `Ndjson); ("csv", `Csv) ]) `Ndjson
         & info [ "stream-format" ] ~docv:"FMT"
             ~doc:"Streamed record format: ndjson (one \
                   {\"r\":{...},\"s\":{...}} object per line, default) or \
                   csv (header row of r.*/s.* columns).")
  in
  let run r s rk sk rules key stats show negative check_conflicts explain
      stream_out stream_format =
    (* The stream writes the pairs only: a flag asking for more is refused
       before any input is read or any output opened. *)
    (match
       List.filter_map
         (fun (set, flag) -> if set then Some flag else None)
         [ (negative, "--negative"); (explain, "--explain") ]
     with
    | _ :: _ as dropped when stream_out <> None ->
        Format.eprintf
          "entity_ident: --stream-out writes the matched pairs only; it \
           cannot be combined with %s@."
          (String.concat " or " dropped);
        exit 2
    | _ -> ());
    let telemetry = telemetry_of stats in
    let r, s, ilfds = setup ~telemetry r s rk sk rules in
    let key = Entity_id.Extended_key.make (parse_key_list key) in
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
        (* One record per matched pair, written as the join finds it,
           from R′'s and S′'s code columns: no row is decoded. *)
        let stream oc =
          let names rel =
            Relational.Schema.names
              (Entity_id.Identify.extension_schema rel key)
          in
          Eid_store.Pair_writer.header oc stream_format ~r_names:(names r)
            ~s_names:(names s);
          let r', s' =
            Entity_id.Identify.extend ~mode ~telemetry ~r ~s ~key ilfds
          in
          let write = Eid_store.Pair_writer.records oc stream_format r' s' in
          Entity_id.Identify.fold_pairs ~telemetry ~key r' s' ~init:0
            ~f:(fun n i j ->
              write i j;
              n + 1)
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
              if dest = "-" then
                output_failed ~stdout:true "stream to" "stdout" m
              else output_failed "stream to" dest m
        in
        (* The summary must not corrupt a stream going to stdout. *)
        let ppf =
          if dest = "-" then Format.err_formatter else Format.std_formatter
        in
        Format.fprintf ppf "streamed %d matched pair(s) to %s@." count
          (if dest = "-" then "stdout" else dest);
        print_stats stats telemetry
    | None ->
    let res =
      try Entity_id.Identify.matched ~mode ~telemetry ~r ~s ~key ilfds
      with Ilfd.Apply.Conflict_found c ->
        Format.eprintf "entity_ident: %a@." Ilfd.Apply.pp_conflict c;
        exit 2
    in
    let print_extended () =
      print_table ~title:"R'" res.r_extended;
      print_table ~title:"S'" res.s_extended
    in
    let mt = Entity_id.Identify.matching_table res in
    let print_mt () =
      print_table ~title:"matching table"
        (Entity_id.Matching_table.to_relation mt)
    in
    let print_integrated () =
      print_table ~title:"integrated table"
        (Entity_id.Integrate.integrated_table res)
    in
    let report = Entity_id.Verify.check mt in
    to_stdout (fun () ->
        Telemetry.span telemetry "output.render" (fun () ->
            (match show with
            | `Mt -> print_mt ()
            | `Integrated -> print_integrated ()
            | `Extended -> print_extended ()
            | `All ->
                print_extended ();
                print_mt ();
                print_integrated ());
            if negative then
              print_table ~title:"negative matching table"
                (Entity_id.Matching_table.to_relation
                   (Entity_id.Negative.of_ilfds ~r:res.r_extended
                      ~s:res.s_extended ilfds));
            if explain then begin
              print_endline "explanations:";
              print_string
                (Entity_id.Explain.render
                   (Entity_id.Explain.matches ~mode ~r ~s ~key res.compiled
                      mt))
            end;
            Format.printf "%a@." Entity_id.Verify.pp_report report);
        print_stats stats telemetry);
    if not (Entity_id.Verify.is_sound_wrt_constraints report) then exit 1
  in
  Cmd.v
    (Cmd.info "identify" ~doc:"Run extended-key + ILFD entity identification.")
    Term.(const run $ r_file $ s_file $ r_key_arg $ s_key_arg $ rules_file
          $ extkey_arg $ stats_arg $ show $ negative
          $ check_conflicts $ explain $ stream_out $ stream_format)

(* ---- closure ---- *)

let closure_cmd =
  let given =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CONDITIONS"
           ~doc:"Conditions, e.g. \"speciality = Hunan & name = X\".")
  in
  let run rules given =
    let ilfds = List.map snd (read_rules rules) in
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
    let ilfds = List.map snd (read_rules rules) in
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
    let r = load_relation input ~keys:[] in
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
  let run r s rk sk rules key stats policy output =
    let telemetry = telemetry_of stats in
    let r, s, ilfds = setup ~telemetry r s rk sk rules in
    let key = Entity_id.Extended_key.make (parse_key_list key) in
    let res = Entity_id.Identify.matched ~telemetry ~r ~s ~key ilfds in
    let default =
      match policy with
      | `Non_null -> Entity_id.Fusion.Prefer_non_null
      | `Left -> Entity_id.Fusion.Prefer_left
      | `Right -> Entity_id.Fusion.Prefer_right
    in
    let fused =
      Telemetry.span telemetry "fusion.fuse" @@ fun () ->
      List.iter
        (fun (attr, l, rt, k) ->
          Format.eprintf "conflict on %s: %s vs %s for %a@." attr
            (Relational.Value.to_string l)
            (Relational.Value.to_string rt)
            Relational.Tuple.pp k)
        (Entity_id.Fusion.conflicts res);
      try Entity_id.Fusion.fuse ~default res
      with Entity_id.Fusion.Inconsistent { attribute; _ } ->
        Format.eprintf
          "fusion failed: unresolved conflict on %s (try --policy)@."
          attribute;
        exit 1
    in
    let render f = Telemetry.span telemetry "output.render" f in
    (* To a file: written to PATH.tmp and renamed only once every byte
       is flushed, as --stream-out writes. *)
    (match output with
    | Some path -> (
        match
          render (fun () ->
              Eid_store.Fsutil.with_atomic_out path (fun oc ->
                  Relational.Csv_io.output oc fused))
        with
        | () -> ()
        | exception Sys_error m -> output_failed "write to" path m)
    | None ->
        to_stdout (fun () -> render (fun () -> Relational.Pretty.print fused)));
    to_stdout (fun () -> print_stats stats telemetry)
  in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:"Identify entities, resolve attribute-value conflicts, and \
             emit the actually-integrated relation.")
    Term.(const run $ r_file $ s_file $ r_key_arg $ s_key_arg $ rules_file
          $ extkey_arg $ stats_arg $ policy_arg $ output)

(* ---- session ---- *)

let session_cmd =
  let run r s rk sk rules key =
    let r, s, ilfds = setup ~telemetry:Telemetry.off r s rk sk rules in
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
                 md-phantom-match, merge-rogue-pair, \
                 derivation-stratum-order, nmt-lost-pair, \
                 algebra-lost-pair.")

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
             engine (fixpoint extension, join, Figure 3 partition, \
             incremental, store, clustering) must agree with the others \
             and with the naive references on every seeded scenario, \
             constraints and metamorphic laws must hold, and any \
             counterexample is shrunk to a minimal replayable scenario. \
             Exits 1 on a counterexample.")
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
              (* The store persists the concrete syntax in config.json
                 and hashes it for snapshot guards. *)
              rules = List.map fst (read_rules rules);
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
