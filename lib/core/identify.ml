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

(* [Relation.row] that keeps the last row it decoded: asked for in pair
   order, an R′ row is decoded once for all its partners. *)
let row_cache relation =
  let last = ref (-1, None) in
  fun i ->
    match !last with
    | k, Some t when k = i -> t
    | _ ->
        let t = Relation.row relation i in
        last := (i, Some t);
        t

(* The first phase: both relations ILFD-extended to the K_Ext target
   schemas, with one compiled family for both sides. *)
let compile telemetry ilfds =
  Telemetry.span telemetry "ilfd.compile" (fun () -> Ilfd.Apply.compile ilfds)

let extend_with ?mode ~telemetry ~r ~s ~key compiled =
  let side name rel =
    Telemetry.span telemetry name (fun () ->
        Ilfd.Fixpoint.extend_relation ?mode ~telemetry rel
          ~target:(extension_schema rel key) compiled)
  in
  let r_ext = side "identify.extend_r" r in
  (r_ext, side "identify.extend_s" s)

let extend ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ilfds =
  extend_with ?mode ~telemetry ~r ~s ~key (compile telemetry ilfds)

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
  let r_row = row_cache r_ext in
  fold_pairs ~telemetry ~key r_ext s_ext ~init ~f:(fun acc i j ->
      f acc (r_row i) (Relation.row s_ext j))

let run_stream ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ~init ~f ilfds =
  let r_ext, s_ext = extend ?mode ~telemetry ~r ~s ~key ilfds in
  fold_tuples ~telemetry ~key r_ext s_ext ~init ~f

(* ---- the row-index result ---- *)

type result = {
  key : Extended_key.t;
  r_key : string list;
  s_key : string list;
  compiled : Ilfd.Apply.compiled;
  r_extended : Relation.t;
  s_extended : Relation.t;
  r_rows : int array;
  s_rows : int array;
  r_partners : int array;
  s_partners : int array;
}

let count_over_one = Array.fold_left (fun n k -> if k > 1 then n + 1 else n) 0

(* The pairs go into two arrays that double as they fill; each pair
   also bumps its rows' partner counts. The outcome counters decode the
   NULL-keyed rows, paid only when the sink is live. *)
let collect ?(telemetry = Telemetry.off) ~key ~r_key ~s_key ~compiled r_ext
    s_ext =
  let r_partners = Array.make (Relation.cardinality r_ext) 0
  and s_partners = Array.make (Relation.cardinality s_ext) 0 in
  let r_rows = ref (Array.make 1024 0) and s_rows = ref (Array.make 1024 0) in
  let m =
    fold_pairs ~telemetry ~key r_ext s_ext ~init:0 ~f:(fun m i j ->
        if m = Array.length !r_rows then begin
          let grow a = Array.append a (Array.make m 0) in
          r_rows := grow !r_rows;
          s_rows := grow !s_rows
        end;
        !r_rows.(m) <- i;
        !s_rows.(m) <- j;
        r_partners.(i) <- r_partners.(i) + 1;
        s_partners.(j) <- s_partners.(j) + 1;
        m + 1)
  in
  if Telemetry.enabled telemetry then begin
    let null_keyed rel =
      List.length (null_key_tuples rel (Extended_key.attributes key))
    in
    Telemetry.add telemetry "identify.pairs" m;
    Telemetry.add telemetry "identify.unmatched_r" (null_keyed r_ext);
    Telemetry.add telemetry "identify.unmatched_s" (null_keyed s_ext);
    Telemetry.add telemetry "identify.violations"
      (count_over_one r_partners + count_over_one s_partners)
  end;
  {
    key;
    r_key;
    s_key;
    compiled;
    r_extended = r_ext;
    s_extended = s_ext;
    r_rows = Array.sub !r_rows 0 m;
    s_rows = Array.sub !s_rows 0 m;
    r_partners;
    s_partners;
  }

let matched ?mode ?(telemetry = Telemetry.off) ~r ~s ~key ilfds =
  let compiled = compile telemetry ilfds in
  let r_ext, s_ext = extend_with ?mode ~telemetry ~r ~s ~key compiled in
  collect ~telemetry ~key ~r_key:(Relation.primary_key r)
    ~s_key:(Relation.primary_key s) ~compiled r_ext s_ext

(* The matched pairs' key codes, gathered from R′'s and S′'s columns in
   pair order. *)
let matching_table res =
  let gather rel attrs rows =
    Array.map
      (fun col -> Array.map (Array.get col) rows)
      (Columnar.columns (Relation.columnar rel) attrs)
  in
  Matching_table.of_codes ~r_key_attrs:res.r_key ~s_key_attrs:res.s_key
    (Array.append
       (gather res.r_extended res.r_key res.r_rows)
       (gather res.s_extended res.s_key res.s_rows))

let decode res =
  let r_row = row_cache res.r_extended in
  let pairs = ref [] in
  for p = Array.length res.r_rows - 1 downto 0 do
    pairs :=
      (r_row res.r_rows.(p), Relation.row res.s_extended res.s_rows.(p))
      :: !pairs
  done;
  let kext = Extended_key.attributes res.key in
  let matching_table = matching_table res in
  {
    r_extended = res.r_extended;
    s_extended = res.s_extended;
    matching_table;
    violations = Matching_table.uniqueness_violations matching_table;
    pairs = !pairs;
    unmatched_r = null_key_tuples res.r_extended kext;
    unmatched_s = null_key_tuples res.s_extended kext;
  }

let run ?mode ?telemetry ~r ~s ~key ilfds =
  decode (matched ?mode ?telemetry ~r ~s ~key ilfds)

let is_verified o = o.violations = []
