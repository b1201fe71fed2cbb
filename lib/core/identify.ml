module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Columnar = Relational.Columnar
module Code_table = Relational.Code_table
module Intern = Relational.Intern

type outcome = {
  r_extended : Relation.t;
  s_extended : Relation.t;
  matching_table : Matching_table.t;
  violations : Matching_table.violation list;
  pairs : (Tuple.t * Tuple.t) list;
  unmatched_r : Tuple.t list;
  unmatched_s : Tuple.t list;
}

(* Rows whose K_Ext projection still carries a NULL after extension,
   found on the code columns and decoded alone: the K_Ext join can never
   match them (non_null_eq), so they are reported rather than dropped
   without a trace. *)
let null_key_tuples relation kext =
  let cols = Columnar.columns (Relation.columnar relation) kext in
  let rec go i acc =
    if i < 0 then acc
    else if Columnar.has_null cols i then
      go (i - 1) (Relation.row relation i :: acc)
    else go (i - 1) acc
  in
  go (Relation.cardinality relation - 1) []

let extension_schema relation key =
  let schema = Relation.schema relation in
  let missing =
    List.filter
      (fun a -> not (Schema.mem schema a))
      (Extended_key.attributes key)
  in
  Schema.concat schema (Schema.of_names missing)

(* The first phase: both relations ILFD-extended to the K_Ext target
   schemas. The family is compiled once for both sides. *)
let extend ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ilfds =
  let compiled = Ilfd.Apply.compile ilfds in
  let side name rel =
    Telemetry.span telemetry name (fun () ->
        Ilfd.Fixpoint.extend_relation ?mode ~telemetry rel
          ~target:(extension_schema rel key) compiled)
  in
  let r_ext = side "identify.extend_r" r in
  (r_ext, side "identify.extend_s" s)

(* The outcome over the matched pairs — candidate-key matching table,
   uniqueness check, NULL-key accounting; counter costs (List.length)
   are paid only when the sink is live. *)
let assemble ~telemetry ~r ~s ~key (r_ext, s_ext) pairs =
  let r_key = Relation.primary_key r and s_key = Relation.primary_key s in
  let r_key_plan = Tuple.plan (Relation.schema r_ext) r_key
  and s_key_plan = Tuple.plan (Relation.schema s_ext) s_key in
  let entry_of (tr, ts) =
    {
      Matching_table.r_key = Tuple.project_with r_key_plan tr;
      s_key = Tuple.project_with s_key_plan ts;
    }
  in
  let matching_table =
    Matching_table.make ~r_key_attrs:r_key ~s_key_attrs:s_key
      (List.map entry_of pairs)
  in
  let kext = Extended_key.attributes key in
  let o =
    {
      r_extended = r_ext;
      s_extended = s_ext;
      matching_table;
      violations = Matching_table.uniqueness_violations matching_table;
      pairs;
      unmatched_r = null_key_tuples r_ext kext;
      unmatched_s = null_key_tuples s_ext kext;
    }
  in
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry "identify.pairs" (List.length o.pairs);
    Telemetry.add telemetry "identify.unmatched_r" (List.length o.unmatched_r);
    Telemetry.add telemetry "identify.unmatched_s" (List.length o.unmatched_s);
    Telemetry.add telemetry "identify.violations" (List.length o.violations)
  end;
  o

(* The second phase: the K_Ext join over the extended relations' code
   columns, folded over the row indices of the matched pairs in the
   serial row-major order (ascending R′ row, ascending S′ partner
   within it) straight off the probe loop, with zero verdict buffering
   — the one production path behind [run], [run_stream] and the CLI's
   stream writer.

   S′ rows go into one code table keyed on their K_Ext match codes, so
   [Int 1] meets [Float 1.] as [non_null_eq] says; rows equal on those
   codes chain in ascending order. Each R′ row probes it with its own
   match codes and walks the chain it finds. Nothing is decoded. *)
let fold_pairs ?(telemetry = Telemetry.off) ~key r_ext s_ext ~init ~f =
  let kext = Extended_key.attributes key in
  Telemetry.span telemetry "identify.join" @@ fun () ->
  let matches rel =
    Array.map (Array.map Intern.match_code)
      (Columnar.columns (Relation.columnar rel) kext)
  in
  let r_match = matches r_ext and s_match = matches s_ext in
  let nr = Relation.cardinality r_ext and ns = Relation.cardinality s_ext in
  let table = Code_table.create ~chains:true ns in
  for j = 0 to ns - 1 do
    if not (Columnar.has_null s_match j) then
      ignore (Code_table.find_or_add table s_match j)
  done;
  Telemetry.add telemetry "identify.join.buckets" (Code_table.size table);
  let acc = ref init in
  for i = 0 to nr - 1 do
    if not (Columnar.has_null r_match i) then begin
      let rec chain j =
        if j >= 0 then begin
          acc := f !acc i j;
          chain (Code_table.next table j)
        end
      in
      chain (Code_table.find table s_match r_match i)
    end
  done;
  !acc

(* [fold_pairs] with each pair's rows decoded; an R′ row is decoded once
   for all its partners. *)
let fold_tuples ~telemetry ~key r_ext s_ext ~init ~f =
  let last = ref (-1, None) in
  let r_row i =
    match !last with
    | k, Some t when k = i -> t
    | _ ->
        let t = Relation.row r_ext i in
        last := (i, Some t);
        t
  in
  fold_pairs ~telemetry ~key r_ext s_ext ~init ~f:(fun acc i j ->
      f acc (r_row i) (Relation.row s_ext j))

let run_stream ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ~init ~f ilfds =
  let r_ext, s_ext = extend ?mode ~telemetry ~r ~s ~key ilfds in
  fold_tuples ~telemetry ~key r_ext s_ext ~init ~f

let run ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ilfds =
  let ((r_ext, s_ext) as extended) =
    extend ?mode ~telemetry ~r ~s ~key ilfds
  in
  let pairs =
    fold_tuples ~telemetry ~key r_ext s_ext ~init:[] ~f:(fun acc tr ts ->
        (tr, ts) :: acc)
  in
  assemble ~telemetry ~r ~s ~key extended (List.rev pairs)

let is_verified o = o.violations = []
