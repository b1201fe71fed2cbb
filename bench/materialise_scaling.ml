(* Scaling gate for the materialised outputs of identify and fuse.

     dune exec bench/materialise_scaling.exe

   Loads two pairs of relations, of 4k and 64k entities per side,
   shaped like the end-to-end benchmark's [data] inputs: R(name,
   cuisine, street) keyed on (name, cuisine), S(name, speciality,
   county) keyed on (name, speciality), 30 [speciality -> cuisine]
   ILFDs, K_Ext = (name, cuisine). Each side holds 80% of the entities,
   so both have unmatched rows. On each pair it times what the CLI runs
   after the loads, from the ILFD extension to the rendered text:

   - [integrated]: identify --show integrated, the integrated table
     rendered ([Integrate.integrated_table], [Pretty.render]);
   - [fuse]: fuse --out, the fused relation as CSV ([Fusion.fuse],
     [Csv_io.to_string]);
   - [mt]: identify --show mt, the matching table built, verified and
     rendered ([Identify.matching_table], [Verify.check],
     [Matching_table.to_relation], [Pretty.render]).

   It exits 1 when one of them costs more than [max_ratio] times as
   much at 64k as at 4k. Work linear in the rows grows 16x (the sorts
   add a log factor, about 21x); the per-row scan of the matched pairs
   that found unmatched rows grew 256x. Each size takes the best of 3
   runs; a run repeats the operation enough times to cover 64k
   entities (so the 4k run is not a few-millisecond sample), and t is
   that run's time per operation. *)

module E = Entity_id

let small = 4_000
let large = 64_000
let max_ratio = 32.

let cuisines = 10

let relations n =
  let r = Buffer.create (n * 24) and s = Buffer.create (n * 24) in
  Buffer.add_string r "name,cuisine,street\n";
  Buffer.add_string s "name,speciality,county\n";
  for i = 0 to n - 1 do
    let c = i mod cuisines and k = i / cuisines mod 3 in
    if i mod 5 <> 0 then
      Printf.bprintf r "N%d,Cuisine%d,St%d\n" (i / 3) c i;
    if i mod 5 <> 1 then
      Printf.bprintf s "N%d,Spec%d_%d,County%d\n" (i / 3) c k (i mod 20)
  done;
  let load b keys =
    Relational.Csv_io.relation_of_string ~keys (Buffer.contents b)
  in
  ( load r [ [ "name"; "cuisine" ] ],
    load s [ [ "name"; "speciality" ] ] )

let ilfds =
  List.concat
    (List.init cuisines (fun c ->
         List.init 3 (fun k ->
             Ilfd.parse
               (Printf.sprintf "speciality = Spec%d_%d -> cuisine = Cuisine%d"
                  c k c))))

let key = E.Extended_key.make [ "name"; "cuisine" ]

let operations =
  [
    ( "integrated",
      fun res ->
        Relational.Pretty.render ~title:"integrated table"
          (E.Integrate.integrated_table res) );
    ( "fuse",
      fun res -> Relational.Csv_io.to_string (E.Fusion.fuse res) );
    ( "mt",
      fun res ->
        let mt = E.Identify.matching_table res in
        ignore (Sys.opaque_identity (E.Verify.check mt));
        Relational.Pretty.render ~title:"matching table"
          (E.Matching_table.to_relation mt) );
  ]

(* Seconds per operation: the best of 3 runs of [large / n] of them. *)
let time_per_op (r, s) n op =
  let reps = max 1 (large / n) in
  let run () =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore
        (Sys.opaque_identity (op (E.Identify.matched ~r ~s ~key ilfds)))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  List.fold_left min infinity (List.init 3 (fun _ -> run ()))

let () =
  let small_rels = relations small and large_rels = relations large in
  let failed = ref false in
  List.iter
    (fun (name, op) ->
      let t_small = time_per_op small_rels small op
      and t_large = time_per_op large_rels large op in
      let ratio = t_large /. t_small in
      Printf.printf
        "{\"op\": %S, \"entities_small\": %d, \"small_ms\": %.3f, \
         \"entities_large\": %d, \"large_ms\": %.3f, \"ratio\": %.1f, \
         \"max_ratio\": %.0f}\n%!"
        name small (t_small *. 1000.) large (t_large *. 1000.) ratio max_ratio;
      if ratio > max_ratio then begin
        Printf.eprintf
          "materialise_scaling: %s t(%d)/t(%d) = %.1f exceeds %.0f; it is \
           no longer linear in the rows\n"
          name large small ratio max_ratio;
        failed := true
      end)
    operations;
  if !failed then exit 1
