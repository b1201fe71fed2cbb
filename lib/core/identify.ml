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
    else if Array.exists (fun col -> col.(i) = Intern.null_code) cols then
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

(* Both relations ILFD-extended to the K_Ext target schemas — the phase
   shared verbatim by [run] and [run_stream]. The family is compiled once
   for both sides. *)
let extend_both ?mode ~telemetry ~r ~s ~key ilfds =
  let r_target = extension_schema r key
  and s_target = extension_schema s key in
  let compiled = Ilfd.Apply.compile ilfds in
  let r_ext =
    Telemetry.span telemetry "identify.extend_r" (fun () ->
        Ilfd.Fixpoint.extend_relation ?mode ~telemetry r
          ~target:r_target compiled)
  in
  let s_ext =
    Telemetry.span telemetry "identify.extend_s" (fun () ->
        Ilfd.Fixpoint.extend_relation ?mode ~telemetry s
          ~target:s_target compiled)
  in
  (r_target, s_target, r_ext, s_ext)

(* The outcome over the matched pairs — candidate-key matching table,
   uniqueness check, NULL-key accounting; counter costs (List.length)
   are paid only when the sink is live. *)
let assemble ~telemetry ~r ~s ~key (r_target, s_target, r_ext, s_ext) pairs =
  let r_key = Relation.primary_key r and s_key = Relation.primary_key s in
  let r_key_plan = Tuple.plan r_target r_key
  and s_key_plan = Tuple.plan s_target s_key in
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

(* The K_Ext join over the extended relations' code columns, folded in
   the serial row-major order (ascending R′ row, ascending S′ partner
   within it) straight off the probe loop, with zero verdict buffering —
   the one production path behind [run] and [run_stream].

   S′ rows go into one code table keyed on their K_Ext match codes, so
   [Int 1] meets [Float 1.] as [non_null_eq] says; rows equal on those
   codes chain in ascending order. Each R′ row probes it with its own
   match codes. A row holding an ambiguous number takes the fallback:
   an S′ one is tested against every safe R′ row and merged into its
   chain in row order, an R′ one is tested against every S′ row; both
   with [Intern.codes_match], which is [non_null_eq] on the values. Only
   the rows of matched pairs are decoded. *)
let join_fold ~telemetry ~key ~r_ext ~s_ext ~init ~f =
  let kext = Extended_key.attributes key in
  Telemetry.span telemetry "identify.join" @@ fun () ->
  let r_codes = Columnar.columns (Relation.columnar r_ext) kext
  and s_codes = Columnar.columns (Relation.columnar s_ext) kext in
  let matches = Array.map (Array.map Intern.match_code) in
  let r_match = matches r_codes and s_match = matches s_codes in
  let nr = Relation.cardinality r_ext and ns = Relation.cardinality s_ext in
  let table = Code_table.create ~chains:true ns in
  let unsafe_s = ref [] in
  for j = 0 to ns - 1 do
    match Columnar.key_kind s_match j with
    | Safe_key -> ignore (Code_table.find_or_add table s_match j)
    | Unsafe_key -> unsafe_s := j :: !unsafe_s
    | Null_key -> ()
  done;
  let unsafe_s = List.rev !unsafe_s in
  Telemetry.add telemetry "identify.join.buckets" (Code_table.size table);
  let agree i j =
    Array.for_all2 (fun rc sc -> Intern.codes_match rc.(i) sc.(j)) r_codes
      s_codes
  in
  let acc = ref init in
  let emit tr j = acc := f !acc (Lazy.force tr) (Relation.row s_ext j) in
  for i = 0 to nr - 1 do
    match Columnar.key_kind r_match i with
    | Null_key -> ()
    | Unsafe_key ->
        let tr = lazy (Relation.row r_ext i) in
        for j = 0 to ns - 1 do
          if agree i j then emit tr j
        done
    | Safe_key ->
        let tr = lazy (Relation.row r_ext i) in
        let rec merge j unsafe =
          match unsafe with
          | u :: rest when j < 0 || u < j ->
              if agree i u then emit tr u;
              merge j rest
          | _ ->
              if j >= 0 then begin
                emit tr j;
                merge (Code_table.next table j) unsafe
              end
        in
        merge (Code_table.find table s_match r_match i) unsafe_s
  done;
  !acc

let run_stream ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ~init ~f ilfds =
  let _, _, r_ext, s_ext = extend_both ?mode ~telemetry ~r ~s ~key ilfds in
  join_fold ~telemetry ~key ~r_ext ~s_ext ~init ~f

let run ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ilfds =
  let ((_, _, r_ext, s_ext) as extended) =
    extend_both ?mode ~telemetry ~r ~s ~key ilfds
  in
  let pairs =
    join_fold ~telemetry ~key ~r_ext ~s_ext ~init:[]
      ~f:(fun acc tr ts -> (tr, ts) :: acc)
  in
  assemble ~telemetry ~r ~s ~key extended (List.rev pairs)

let is_verified o = o.violations = []
