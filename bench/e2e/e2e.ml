(* End-to-end benchmark of the shipped [entity_ident] binary.

   e2e --workload rules|data --seed N --seconds S --trace 0|1
       [--bin PATH] [--smoke] [--corrupt-expected]

   Every workload runs both forms users meet: a batch [identify] from
   CSV files to an output file, and a [serve] session of inserts, reads
   and updates. The workloads differ in the shape of their inputs, so
   each stresses different layers (README.md has the map). With
   [--trace 1] the same inputs also run in-process through the library
   calls the CLI makes, and the per-layer metrics are printed instead of
   the end-to-end ones.

   The last line of stdout is the result:
   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
   A failed check makes the exit code 1. *)

module Json = Eid_store.Json

type workload = {
  name : string;
  family : Gen.family;
  batch_entities : int;
  serve_entities : int;
  preload : int;
  inserts : int;
}

(* rules: ILFD work dominates both forms — a 20k-rule family over 16k
   rows in batch, a 2k-rule family recompiled on each insert into a
   small store. data: thirty rules, so load, join and store size
   dominate — a 160k-row streaming join in batch, a 4k-row store that
   each insert rebuilds. *)
let workloads ~smoke =
  [
    {
      name = "rules";
      family = Entity_rules;
      batch_entities = (if smoke then 300 else 10_000);
      serve_entities = (if smoke then 300 else 1_000);
      preload = (if smoke then 100 else 400);
      inserts = (if smoke then 200 else 400);
    };
    {
      name = "data";
      family = Cuisine_rules;
      batch_entities = (if smoke then 300 else 100_000);
      serve_entities = (if smoke then 300 else 3_000);
      preload = (if smoke then 100 else 4_000);
      inserts = (if smoke then 200 else 400);
    };
  ]

(* The data-heavy batch takes the streaming path ([--stream-out]); the
   rule-heavy one the materialised path, whose table and verification
   are output work of their own. *)
let streams w = w.family = Gen.Cuisine_rules

(* ---- output ---- *)

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (!Measure.failed = 0) !Measure.attempted !Measure.failed
    (String.concat "," m)

let header ~w ~seed ~seconds ~trace ~bin ~(b : Gen.batch) ~(inp : Serve.inputs)
    ~runs ~(reps : Serve.rep list) =
  let int n = Json.Int n and str s = Json.String s in
  let gc = Gc.get () in
  let samples cls = List.length (Serve.latencies_of cls reps) in
  Json.Obj
    [
      ( "header",
        Json.Obj
          [
            ("host_cores", int (Domain.recommended_domain_count ()));
            ("ocaml", str Sys.ocaml_version);
            ( "ocamlrunparam",
              match Sys.getenv_opt "OCAMLRUNPARAM" with
              | Some s -> str s
              | None -> Json.Null );
            ( "gc",
              Json.Obj
                [
                  ("minor_heap_size", int gc.minor_heap_size);
                  ("space_overhead", int gc.space_overhead);
                  ("max_overhead", int gc.max_overhead);
                  ("allocation_policy", int gc.allocation_policy);
                  ("window_size", int gc.window_size);
                ] );
            ("binary", str bin);
            ("workload", str w.name);
            ("seed", int seed);
            ("seconds", Json.Float seconds);
            ("trace", Json.Bool trace);
            ( "batch",
              Json.Obj
                [
                  ("entities", int w.batch_entities);
                  ("r_rows", int b.r_rows);
                  ("s_rows", int b.s_rows);
                  ("rules", int b.n_rules);
                  ("pairs", int b.n_pairs);
                  ("output", str (if streams w then "stream-out" else "show-mt"));
                  ("warmup_runs", int 1);
                  ("timed_runs", int (List.length runs));
                ] );
            ( "serve",
              Json.Obj
                [
                  ("entities", int w.serve_entities);
                  ("rules", int inp.gen.serve_rules);
                  ("preload_rows", int inp.gen.preload_rows);
                  ( "inserts_per_rep",
                    int
                      (Array.fold_left
                         (fun n k -> if k = Serve.Insert then n + 1 else n)
                         0 inp.stream.kinds) );
                  ("requests_per_rep", int (Array.length inp.stream.lines));
                  ("repetitions", int (List.length reps));
                  ( "samples",
                    Json.Obj
                      (List.map
                         (fun cls -> (Serve.class_name cls, int (samples cls)))
                         Serve.classes) );
                ] );
          ] );
    ]

(* ---- the end-to-end metrics ---- *)

let ms s = 1000. *. s

let end_to_end runs (inp : Serve.inputs) (reps : Serve.rep list) =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. reps in
  let rows_per_rep =
    Array.fold_left
      (fun n -> function Some (Gen.Insert _) -> n + 1 | _ -> n)
      0 inp.stream.expects
  in
  [
    ("setup_s", Measure.median (List.map (fun r -> r.Serve.reopen_s) reps), "s");
    ("run_s", Measure.median (List.map fst runs), "s");
    ( "peak_rss_mb",
      Measure.median (List.map (fun (_, kb) -> float_of_int kb) runs) /. 1024.,
      "MiB" );
    ( "serve_rss_mb",
      Measure.median (List.map (fun r -> float_of_int r.Serve.rss_kb) reps) /. 1024.,
      "MiB" );
    ("insert_p50_ms", ms (Measure.median (Serve.latencies_of Insert reps)), "ms");
    ( "ops_per_s",
      sum (fun r -> float_of_int (List.length r.latencies)) /. sum (fun r -> r.stream_s),
      "1/s" );
    ( "wal_bytes_per_row",
      sum (fun r -> float_of_int r.wal_bytes)
      /. float_of_int (rows_per_rep * List.length reps),
      "B/row" );
  ]

(* The other serve latencies users see. Two sets of runs of one commit
   disagree on them by more than a bound can allow (README.md), so they
   are reported with the per-layer metrics, from the traced run's own
   repetitions. The tail is pooled over the repetitions: three or more
   put at least twelve samples beyond the p99. *)
let serve_latencies (reps : Serve.rep list) =
  let lat cls = Serve.latencies_of cls reps in
  [
    ("serve.insert_p99_ms", ms (Measure.percentile 0.99 (lat Insert)), "ms");
    ("serve.identify_p50_ms", ms (Measure.median (lat Identify)), "ms");
    ("serve.update_p50_ms", ms (Measure.median (lat Update)), "ms");
    ("serve.explain_p50_ms", ms (Measure.median (lat Explain)), "ms");
  ]

(* ---- main ---- *)

let usage =
  "e2e --workload rules|data --seed N --seconds S --trace 0|1 [--bin PATH] \
   [--smoke] [--corrupt-expected]"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("e2e: " ^ m);
      exit 2)
    fmt

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* Break the answers the checks read back: one extra expected pair, and
   a wrong expectation for the first preload request. *)
let corrupt (b : Gen.batch) (sv : Gen.serve) =
  Measure.write_lines b.expected (Measure.read_lines b.expected @ [ "X X X X" ]);
  match Measure.read_lines sv.preload_expected with
  | _ :: rest ->
      Measure.write_lines sv.preload_expected
        (Json.to_string (Gen.json_of_expect Gen.Conflict) :: rest)
  | [] -> ()

let run w ~start ~seed ~seconds ~trace ~bin ~dir ~smoke ~corrupt_expected =
  let b =
    Gen.write_batch ~dir ~seed ~family:w.family ~entities:w.batch_entities
  in
  let sv =
    Gen.write_serve ~dir ~seed ~family:w.family ~entities:w.serve_entities
      ~preload:w.preload ~inserts:w.inserts
  in
  if corrupt_expected then corrupt b sv;
  let stream = streams w in
  let form =
    {
      Batch.inputs = b;
      stream;
      out = Filename.concat dir (if stream then "out.ndjson" else "out.txt");
    }
  in
  let inp = Serve.load sv in
  let log = Filename.concat dir "serve.log" in
  let base = Filename.concat dir "store-preloaded" in
  let expected = Batch.expected_pairs form in
  ignore (Batch.run ~bin form ~expected);
  Serve.preload ~bin inp ~dir:base ~log;
  (* Batch runs and serve repetitions alternate, so the samples of every
     metric spread over the whole run rather than one stretch of it: the
     host's speed drifts over seconds, and a median over the whole run
     is steadier than one over a part. The budget counts from [start],
     the start of the process: generation, warm-up and preload spend it
     too, and with [trace] so does the in-process replay, which costs
     about one batch run and one repetition. *)
  let loop_start = Measure.now () in
  let rec go runs reps =
    let n = List.length reps in
    let now = Measure.now () in
    let per = if n = 0 then 0. else (now -. loop_start) /. float_of_int n in
    let replay = if trace then 1.5 *. per else 0. in
    if n >= (if smoke then 1 else 3) && now -. start +. per +. replay > seconds
    then
      (List.rev runs, List.rev reps)
    else
      let run = Batch.run ~bin form ~expected in
      let rep =
        Serve.repetition ~bin inp ~base ~dir:(Filename.concat dir "store") ~log
      in
      go (run :: runs) (rep :: reps)
  in
  let runs, reps = go [] [] in
  let e2e = end_to_end runs inp reps in
  let metrics =
    if not trace then e2e
    else
      let e2e_p50_ms cls = ms (Measure.median (Serve.latencies_of cls reps)) in
      (* Start each in-process replay from a compacted heap, closer to
         the fresh process the end-to-end numbers come from. *)
      Gc.compact ();
      let batch = Batch.trace form ~run_s:(Measure.median (List.map fst runs)) in
      Gc.compact ();
      batch
      @ Serve.trace inp ~base ~dir:(Filename.concat dir "store-traced") ~e2e_p50_ms
      @ serve_latencies reps
  in
  List.iter
    (fun (name, v, _) ->
      Measure.check (Float.is_finite v) (fun () -> name ^ " is not finite"))
    metrics;
  List.iter
    (fun (name, v, _) -> Measure.check (v > 0.) (fun () -> name ^ " is not positive"))
    (if trace then [] else e2e);
  print_endline
    (Json.to_string (header ~w ~seed ~seconds ~trace ~bin ~b ~inp ~runs ~reps));
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-40s %14.4f %s\n" name v unit)
    metrics;
  print_endline (result_line metrics)

let () =
  let start = Measure.now () in
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) in
  let trace = ref (-1) and bin = ref "_build/default/bin/entity_ident.exe" in
  let smoke = ref false and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME rules or data");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 per-layer trace");
      ("--bin", Arg.Set_string bin, "PATH entity_ident binary");
      ("--smoke", Arg.Set smoke, " test-sized inputs");
      ("--corrupt-expected", Arg.Set corrupt, " break the expected answers");
    ]
    (fun a -> die "unexpected argument %S\n%s" a usage)
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) (workloads ~smoke:!smoke) with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  if !seed < 0 then die "--seed N is required\n%s" usage;
  if not (!seconds > 0.) then die "--seconds S is required\n%s" usage;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1\n%s" usage;
  if not (Sys.file_exists !bin) then die "no binary at %s (build it first)" !bin;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Scratch space under the current directory, removed at exit. *)
  let work = ".e2e-work" in
  let dir = absolute (Filename.concat work (Printf.sprintf "%s-%d" w.name !seed)) in
  Eid_store.Fsutil.remove_tree dir;
  Eid_store.Fsutil.ensure_dir dir;
  Fun.protect
    ~finally:(fun () ->
      Measure.kill_live ();
      Eid_store.Fsutil.remove_tree dir;
      try Unix.rmdir work with Unix.Unix_error _ -> ())
    (fun () ->
      run w ~start ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~bin:(absolute !bin) ~dir ~smoke:!smoke ~corrupt_expected:!corrupt);
  exit (if !Measure.failed = 0 then 0 else 1)
