(* The extension phase head-to-head — the production fixpoint, one trie
   evaluation per derivation class, vs the per-tuple recursive reference
   engine — plus one telemetry-enabled pipeline run, written to
   BENCH_partition.json in the working directory. *)

module R = Relational
module E = Entity_id

let time_ms f =
  let t0 = Sys.time () in
  let result = f () in
  let t1 = Sys.time () in
  (result, (t1 -. t0) *. 1000.)

(* At smoke sizes a run can complete inside one [Sys.time] tick, making
   the denominator 0.0 and the quotient inf (or nan for 0/0) — which
   then poisons the JSON. Clamp to the clock's granularity instead;
   speedups are meaningless below it anyway. *)
let safe_speedup num den = num /. Float.max den 0.001

(* Best of [reps] runs, heap settled before each so neither engine is
   billed for the other's garbage; results are dropped between runs. *)
let best_of reps f =
  let rec go best remaining =
    if remaining = 0 then best
    else begin
      Gc.compact ();
      let result, ms = time_ms f in
      ignore (Sys.opaque_identity result);
      let best = if ms < best then ms else best in
      go best (remaining - 1)
    end
  in
  go infinity reps

(* A restaurant instance sized so both sides hold about a thousand
   tuples (the generator's 0.8 coverage over n_entities). Exact
   agreement is asserted on both relations before timing. *)
type ext_row = {
  ext_n_r : int;
  ext_n_s : int;
  fixpoint_ms : float;
  recursive_ms : float;
  ext_speedup : float;
  ext_agree : bool;
}

let measure_extension () =
  let n_entities =
    if Sys.getenv_opt "BENCH_SMOKE" <> None then 300 else 1250
  in
  let inst =
    Workload.Restaurant.generate
      { Workload.Restaurant.default with n_entities; seed = 5 }
  in
  let r_target = E.Identify.extension_schema inst.r inst.key
  and s_target = E.Identify.extension_schema inst.s inst.key in
  let fixpoint () =
    let compiled = Ilfd.Apply.compile inst.ilfds in
    ( Ilfd.Fixpoint.extend_relation inst.r ~target:r_target compiled,
      Ilfd.Fixpoint.extend_relation inst.s ~target:s_target compiled )
  and recursive () =
    ( Checker.Reference.extend_relation inst.r ~target:r_target inst.ilfds,
      Checker.Reference.extend_relation inst.s ~target:s_target inst.ilfds
    )
  in
  let fr, fs = fixpoint () and rr, rs = recursive () in
  let ext_agree = R.Relation.equal fr rr && R.Relation.equal fs rs in
  let fixpoint_ms = best_of 3 fixpoint in
  let recursive_ms = best_of 3 recursive in
  {
    ext_n_r = R.Relation.cardinality inst.r;
    ext_n_s = R.Relation.cardinality inst.s;
    fixpoint_ms;
    recursive_ms;
    ext_speedup = safe_speedup recursive_ms fixpoint_ms;
    ext_agree;
  }

(* The telemetry story for the JSON artefact: one full [Identify.run]
   over the restaurant workload, so the stats block carries the ILFD
   fixpoint, join and phase-timing numbers at once. *)
let stats_json () =
  let inst = Workload.Restaurant.generate Workload.Restaurant.default in
  let telemetry = Telemetry.create () in
  ignore
    (E.Identify.run ~telemetry ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds);
  Telemetry.to_json telemetry

let json_of ext =
  Printf.sprintf
    "{\n\
    \  \"benchmark\": \"extension_fixpoint_vs_recursive\",\n\
    \  \"extension\": {\"n_r\": %d, \"n_s\": %d, \"fixpoint_ms\": %.3f, \
     \"recursive_ms\": %.3f, \"speedup\": %.2f, \"agree\": %b},\n\
    \  \"stats\": %s\n\
     }\n"
    ext.ext_n_r ext.ext_n_s ext.fixpoint_ms ext.recursive_ms ext.ext_speedup
    ext.ext_agree (stats_json ())

let all () =
  print_endline
    "\n================ Extension: fixpoint vs recursive ================";
  let ext = measure_extension () in
  print_string
    (R.Pretty.render_rows
       ~header:[ "extension |R|,|S|"; "recursive"; "fixpoint"; "speedup"; "agree" ]
       [
         [
           Printf.sprintf "%d,%d" ext.ext_n_r ext.ext_n_s;
           Printf.sprintf "%.2f ms" ext.recursive_ms;
           Printf.sprintf "%.2f ms" ext.fixpoint_ms;
           Printf.sprintf "%.1fx" ext.ext_speedup;
           string_of_bool ext.ext_agree;
         ];
       ]);
  let out = open_out "BENCH_partition.json" in
  output_string out (json_of ext);
  close_out out;
  print_endline "wrote BENCH_partition.json";
  if not ext.ext_agree then begin
    prerr_endline
      "partition_bench: fixpoint extension DISAGREES with recursive engine";
    exit 1
  end
