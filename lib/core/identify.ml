module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Columnar = Relational.Columnar

type outcome = {
  r_extended : Relation.t;
  s_extended : Relation.t;
  matching_table : Matching_table.t;
  violations : Matching_table.violation list;
  pairs : (Tuple.t * Tuple.t) list;
  unmatched_r : Tuple.t list;
  unmatched_s : Tuple.t list;
}

(* Tuples whose K_Ext projection still carries a NULL after extension:
   the K_Ext hash join can never match them (non_null_eq), so they were
   previously dropped without a trace. *)
let null_key_tuples schema relation kext =
  let plan = Tuple.plan schema kext in
  List.filter
    (fun t -> Tuple.has_null (Tuple.project_with plan t))
    (Relation.tuples relation)

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
      unmatched_r = null_key_tuples r_target r_ext kext;
      unmatched_s = null_key_tuples s_target s_ext kext;
    }
  in
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry "identify.pairs" (List.length o.pairs);
    Telemetry.add telemetry "identify.unmatched_r" (List.length o.unmatched_r);
    Telemetry.add telemetry "identify.unmatched_s" (List.length o.unmatched_s);
    Telemetry.add telemetry "identify.violations" (List.length o.violations)
  end;
  o

(* The coded hash join: one build table over the S key columns, one
   row-major probe. Bucket keys are small int arrays — the relations'
   interned storage codes — so build and probe are integer hashing with
   no per-tuple value projection (storage codes partition cells exactly
   like structural equality on the values). Tuples with any NULL key
   value never match (non_null_eq). Building in descending row order
   conses each bucket straight into ascending partner order — no
   reversal pass — so [emit i j] observes strictly ascending (i, j), the
   serial row-major order. *)
let serial_join ~telemetry ~r_cols ~s_cols ~nr ~ns ~emit =
  let buckets = Hashtbl.create (max 16 ns) in
  for j = ns - 1 downto 0 do
    match Columnar.key_opt s_cols j with
    | Some k -> (
        match Hashtbl.find_opt buckets k with
        | Some partners -> partners := j :: !partners
        | None -> Hashtbl.add buckets k (ref [ j ]))
    | None -> ()
  done;
  Telemetry.add telemetry "identify.join.buckets" (Hashtbl.length buckets);
  for i = 0 to nr - 1 do
    match Columnar.key_opt r_cols i with
    | Some k -> (
        match Hashtbl.find_opt buckets k with
        | Some partners -> List.iter (fun j -> emit i j) !partners
        | None -> ())
    | None -> ()
  done

(* The K_Ext join over the extended relations, folded in the serial
   row-major order (ascending R′ row, ascending S′ partner within it)
   straight off the probe loop, with zero verdict buffering — the one
   production path behind [run] and [run_stream]. *)
let join_fold ~telemetry ~key ~r_ext ~s_ext ~init ~f =
  let kext = Extended_key.attributes key in
  Telemetry.span telemetry "identify.join" @@ fun () ->
  let s_cols = Columnar.columns (Relation.columnar s_ext) kext
  and r_cols = Columnar.columns (Relation.columnar r_ext) kext in
  let st = Array.of_list (Relation.tuples s_ext)
  and rt = Array.of_list (Relation.tuples r_ext) in
  let acc = ref init in
  serial_join ~telemetry ~r_cols ~s_cols ~nr:(Array.length rt)
    ~ns:(Array.length st) ~emit:(fun i j -> acc := f !acc rt.(i) st.(j));
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
