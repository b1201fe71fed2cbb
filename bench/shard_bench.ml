(* Key-sharded out-of-core identification at scale. Each (size, shards,
   budget) configuration first asserts the sharded pipeline's matched
   pairs equal the unsharded ones element-for-element (the grace-join
   contract), then measures wall-clock time and records the spill
   accounting, and writes everything to BENCH_shard.json in the working
   directory.

   The sweep is sized toward 10^6 x 10^6: the default full run stops at
   100k per side (with a budget tight enough to force the spill path),
   and BENCH_SHARD_MAX=1000000 extends it to the million-row
   configuration on hosts with the disk and patience for it.

   BENCH_SMOKE=1 shrinks the sweep to CI size: the point of the smoke
   run is executing the agreement assertions and the spill round trip,
   not the timings. *)

module R = Relational
module E = Entity_id

let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

let max_side =
  match Sys.getenv_opt "BENCH_SHARD_MAX" with
  | Some s -> int_of_string s
  | None -> 100_000

let schema = R.Schema.of_names [ "id"; "name" ]

(* Mostly-unique string keys with an n/2 offset overlap between the two
   sides: ~n/2 matched pairs, every bucket tiny — the regime where the
   hash tables themselves, not the candidate pairs, are the memory
   bound, which is exactly what sharding + spilling is for. *)
let side ~offset n =
  R.Relation.create schema
    (List.init n (fun i ->
         [ R.Value.int (offset + i);
           R.Value.string (Printf.sprintf "k%07d" (offset + i)) ]))

let key = E.Extended_key.make [ "name" ]

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  (result, (t1 -. t0) *. 1000.)

let best_of reps f =
  let rec go best remaining =
    if remaining = 0 then best
    else begin
      Gc.compact ();
      let result, ms = wall_ms f in
      ignore (Sys.opaque_identity result);
      go (min ms best) (remaining - 1)
    end
  in
  go infinity reps

type row = {
  n : int;
  shards : int;
  pool_jobs : int;
  budget : int option;
  streaming : bool;
  ms : float;
  spills : int;
  spilled_bytes : int;
  peak_verdict_bytes : int;
  agree : bool;
}

let measure n =
  let r = side ~offset:0 n and s = side ~offset:(n / 2) n in
  let run ?mem_budget ?(jobs = 1) ?(telemetry = Telemetry.off) shards () =
    (E.Identify.run ~jobs ~shards ?mem_budget ~telemetry ~r ~s ~key []).pairs
  in
  let stream ?mem_budget ?(jobs = 1) ?(telemetry = Telemetry.off) shards () =
    List.rev
      (E.Identify.run_stream ~jobs ~shards ?mem_budget ~telemetry ~r ~s ~key
         ~init:[]
         ~f:(fun acc a b -> (a, b) :: acc)
         [])
  in
  let reference = run 1 () in
  let reps = if smoke then 3 else if n >= 1_000_000 then 1 else 2 in
  let serial_ms = best_of reps (run 1) in
  (* A budget of ~1/8 the resident key bytes forces several flushes per
     shard without degenerating into one-item batches. *)
  let tight = max 4096 (n * 6) in
  let shard_count = if smoke then 4 else 8 in
  (* The sharded rows schedule shard chunks on the domain pool at the
     host's own width; the no-budget row is the grace join with every
     shard partition resident. *)
  let pool = Parallel.resolve None in
  let materialised (shards, jobs, budget) =
    let telemetry = Telemetry.create () in
    let pairs = run ?mem_budget:budget ~jobs ~telemetry shards () in
    let agree = pairs = reference in
    let spills = Telemetry.counter telemetry "parallel.shard.spills"
    and spilled_bytes =
      Telemetry.counter telemetry "parallel.shard.spilled_bytes"
    in
    let ms = best_of reps (run ?mem_budget:budget ~jobs shards) in
    {
      n;
      shards;
      pool_jobs = jobs;
      budget;
      streaming = false;
      ms;
      spills;
      spilled_bytes;
      peak_verdict_bytes = 0;
      agree;
    }
  in
  let streamed (shards, jobs, budget) =
    let telemetry = Telemetry.create () in
    let pairs = stream ?mem_budget:budget ~jobs ~telemetry shards () in
    let agree = pairs = reference in
    let spills = Telemetry.counter telemetry "parallel.sink.spills"
    and spilled_bytes =
      Telemetry.counter telemetry "parallel.sink.spilled_bytes"
    and peak = Telemetry.counter telemetry "identify.peak_verdict_bytes" in
    let ms = best_of reps (stream ?mem_budget:budget ~jobs shards) in
    {
      n;
      shards;
      pool_jobs = jobs;
      budget;
      streaming = true;
      ms;
      spills;
      spilled_bytes;
      peak_verdict_bytes = peak;
      agree;
    }
  in
  [
    {
      n;
      shards = 1;
      pool_jobs = 1;
      budget = None;
      streaming = false;
      ms = serial_ms;
      spills = 0;
      spilled_bytes = 0;
      peak_verdict_bytes = 0;
      agree = true;
    };
    materialised (shard_count, pool, None);
    materialised (shard_count, pool, Some tight);
    streamed (shard_count, pool, Some tight);
  ]

(* One telemetry-enabled run per shard count over the same workload; the
   contract under test is that every counter outside the [parallel.*]
   namespace is identical whatever the shard count. *)
let stats_json () =
  let n = if smoke then 2_000 else 20_000 in
  let r = side ~offset:0 n and s = side ~offset:(n / 2) n in
  let run shards mem_budget =
    let telemetry = Telemetry.create () in
    ignore (E.Identify.run ~shards ?mem_budget ~telemetry ~r ~s ~key []);
    telemetry
  in
  let unsharded = run 1 None and sharded = run 8 (Some (max 4096 (n * 6))) in
  let invariant =
    Telemetry.counters_stable unsharded = Telemetry.counters_stable sharded
  in
  (Telemetry.to_json sharded, invariant)

let json_of_rows rows =
  let stats, stats_shards_invariant = stats_json () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"sharded_out_of_core_identify\",\n";
  Buffer.add_string buf "  \"join\": \"K_Ext grace hash join on name\",\n";
  Buffer.add_string buf "  \"clock\": \"wall\",\n";
  Buffer.add_string buf "  \"results\": [\n";
  List.iteri
    (fun i
         {
           n;
           shards;
           pool_jobs;
           budget;
           streaming;
           ms;
           spills;
           spilled_bytes;
           peak_verdict_bytes;
           agree;
         } ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n_r\": %d, \"n_s\": %d, \"shards\": %d, \
            \"pool_jobs\": %d, \"mem_budget\": %s, \"streaming\": %b, \
            \"ms\": %.3f, \"spills\": %d, \"spilled_bytes\": %d, \
            \"peak_verdict_bytes\": %d, \"agree\": %b}%s\n"
           n n shards pool_jobs
           (match budget with None -> "null" | Some b -> string_of_int b)
           streaming ms spills spilled_bytes peak_verdict_bytes agree
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"stats_shards_invariant\": %b,\n"
       stats_shards_invariant);
  Buffer.add_string buf ("  \"stats\": " ^ stats ^ "\n");
  Buffer.contents buf ^ "}\n"

let all () =
  print_endline
    "\n================ Identify: sharded / out-of-core ================";
  if smoke then print_endline "(smoke mode)";
  Gc.set { (Gc.get ()) with minor_heap_size = 32 * 1024 * 1024 };
  let sizes =
    if smoke then [ 2_000 ]
    else List.filter (fun n -> n <= max_side) [ 10_000; 100_000; 1_000_000 ]
  in
  let rows = List.concat_map measure sizes in
  print_string
    (R.Pretty.render_rows
       ~header:
         [
           "|R| = |S|"; "shards"; "jobs"; "budget"; "mode"; "wall"; "spills";
           "peak"; "agree";
         ]
       (List.map
          (fun { n; shards; pool_jobs; budget; streaming; ms; spills;
                 peak_verdict_bytes; agree; _ } ->
            [
              string_of_int n;
              string_of_int shards;
              string_of_int pool_jobs;
              (match budget with
              | None -> "-"
              | Some b -> Printf.sprintf "%dK" (b / 1024));
              (if streaming then "stream" else "pairs");
              Printf.sprintf "%.2f ms" ms;
              string_of_int spills;
              (if peak_verdict_bytes = 0 then "-"
               else Printf.sprintf "%dK" (peak_verdict_bytes / 1024));
              string_of_bool agree;
            ])
          rows));
  let out = open_out "BENCH_shard.json" in
  output_string out (json_of_rows rows);
  close_out out;
  print_endline "wrote BENCH_shard.json";
  if List.exists (fun row -> not row.agree) rows then begin
    prerr_endline "shard_bench: sharded identify DISAGREES with unsharded";
    exit 1
  end;
  if not (List.exists (fun row -> row.spills > 0) rows) then begin
    prerr_endline "shard_bench: no configuration exercised the spill path";
    exit 1
  end
