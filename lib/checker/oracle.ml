module R = Relational
module MT = Entity_id.Matching_table
module EK = Entity_id.Extended_key
module Identify = Entity_id.Identify
module Incremental = Entity_id.Incremental
module Monotonic = Entity_id.Monotonic
module Cluster = Entity_id.Cluster
module Verify = Entity_id.Verify
module Negative = Entity_id.Negative
module Rng = Workload.Rng

type fault =
  | No_fault
  | Broken_blocking_key
  | Drop_last_pair
  | Lost_insert
  | Kdb_lost_edge
  | Md_phantom_match
  | Merge_rogue_pair
  | Stratum_order
  | Nmt_lost_pair
  | Algebra_lost_pair

let all_faults =
  [
    No_fault;
    Broken_blocking_key;
    Drop_last_pair;
    Lost_insert;
    Kdb_lost_edge;
    Md_phantom_match;
    Merge_rogue_pair;
    Stratum_order;
    Nmt_lost_pair;
    Algebra_lost_pair;
  ]

let fault_to_string = function
  | No_fault -> "none"
  | Broken_blocking_key -> "broken-blocking-key"
  | Drop_last_pair -> "drop-last-pair"
  | Lost_insert -> "lost-insert"
  | Kdb_lost_edge -> "kdb-lost-edge"
  | Md_phantom_match -> "md-phantom-match"
  | Merge_rogue_pair -> "merge-rogue-pair"
  | Stratum_order -> "derivation-stratum-order"
  | Nmt_lost_pair -> "nmt-lost-pair"
  | Algebra_lost_pair -> "algebra-lost-pair"

let fault_of_string s =
  List.find_opt (fun f -> String.equal (fault_to_string f) s) all_faults

type discrepancy = { check : string; family : string; detail : string }

let pp_discrepancy ppf d =
  if d.family = "" || d.family = "restaurant" then
    Format.fprintf ppf "[%s] %s" d.check d.detail
  else Format.fprintf ppf "[%s/%s] %s" d.family d.check d.detail

let fail check fmt =
  Format.kasprintf (fun detail -> Error { check; family = ""; detail }) fmt

let ( let* ) = Result.bind

(* Entry-set plumbing. Matching-table entries are compared as sorted
   sets: engines are free to emit them in different orders, and the
   paper's tables are sets. *)

let entry_equal (a : MT.entry) (b : MT.entry) =
  R.Tuple.equal a.r_key b.r_key && R.Tuple.equal a.s_key b.s_key

let entry_compare (a : MT.entry) (b : MT.entry) =
  match R.Tuple.compare a.r_key b.r_key with
  | 0 -> R.Tuple.compare a.s_key b.s_key
  | c -> c

let entry_to_string (e : MT.entry) =
  Printf.sprintf "%s~%s"
    (R.Tuple.to_string e.r_key)
    (R.Tuple.to_string e.s_key)

let sample entries =
  entries
  |> List.filteri (fun i _ -> i < 3)
  |> List.map entry_to_string |> String.concat ", "

let entry_sets_equal check ~left ~right a b =
  let a = List.sort entry_compare a and b = List.sort entry_compare b in
  if List.equal entry_equal a b then Ok ()
  else
    let extra = List.filter (fun e -> not (List.exists (entry_equal e) b)) a
    and missing =
      List.filter (fun e -> not (List.exists (entry_equal e) a)) b
    in
    fail check
      "%s has %d entries, %s has %d; only in %s: [%s]; only in %s: [%s]" left
      (List.length a) right (List.length b) left (sample extra) right
      (sample missing)

let entry_subset check ~sub ~super a b =
  match List.filter (fun e -> not (List.exists (entry_equal e) b)) a with
  | [] -> Ok ()
  | lost ->
      fail check "%d pairs present with %s vanish with %s: [%s]"
        (List.length lost) sub super (sample lost)

let pair_equal (a1, a2) (b1, b2) = R.Tuple.equal a1 b1 && R.Tuple.equal a2 b2
let pairs_equal = List.equal pair_equal

let rebuild rel rows =
  R.Relation.of_tuples (R.Relation.schema rel)
    ~keys:(R.Relation.declared_keys rel)
    rows

(* The from-first-principles reference: extend every tuple individually
   with the recursive engine (no fixpoint, no blocking) and nested-loop
   join on the full extended key — Section 4.2 executed literally. *)

let manual_extension (sc : Scenario.t) rel =
  let schema = R.Relation.schema rel in
  let target = Identify.extension_schema rel sc.key in
  ( target,
    List.map
      (fun t ->
        match Ilfd.Apply.extend_tuple schema t ~target sc.ilfds with
        | Ok (t', _) -> t'
        | Error c -> raise (Ilfd.Apply.Conflict_found c))
      (R.Relation.tuples rel) )

let reference_entries (sc : Scenario.t) =
  let rt, rx = manual_extension sc sc.r in
  let st, sx = manual_extension sc sc.s in
  let attrs = EK.attributes sc.key in
  let rk = R.Relation.primary_key sc.r and sk = R.Relation.primary_key sc.s in
  List.concat_map
    (fun t ->
      List.filter_map
        (fun u ->
          if R.Tuple.agree rt t st u attrs then
            Some
              {
                MT.r_key = R.Tuple.project rt t rk;
                s_key = R.Tuple.project st u sk;
              }
          else None)
        sx)
    rx

(* The Broken_blocking_key mutant: join on only the first extended-key
   attribute. *)
let weak_join (sc : Scenario.t) (base : Identify.outcome) =
  let first = [ List.hd (EK.attributes sc.key) ] in
  let rt = R.Relation.schema base.r_extended
  and st = R.Relation.schema base.s_extended in
  let rk = R.Relation.primary_key sc.r and sk = R.Relation.primary_key sc.s in
  List.concat_map
    (fun t ->
      List.filter_map
        (fun u ->
          if R.Tuple.agree rt t st u first then
            Some
              {
                MT.r_key = R.Tuple.project rt t rk;
                s_key = R.Tuple.project st u sk;
              }
          else None)
        (R.Relation.tuples base.s_extended))
    (R.Relation.tuples base.r_extended)

(* Replay the scenario through the incremental engine from empty
   relations, in relation order (R first, then S — the batch pipeline's
   extension order, so Check_conflicts witnesses line up). Rows are
   numbered across both sides; [skip i] drops row [i], and [repeat i]
   inserts row [i] a second time once both sides are in — an exact
   duplicate, which set semantics must ignore. *)
let replay ?mode ?(skip = fun _ -> false) ?(repeat = fun _ -> false)
    (sc : Scenario.t) =
  let empty_like rel =
    R.Relation.empty (R.Relation.schema rel)
      ~keys:(R.Relation.declared_keys rel)
      ()
  in
  let inc =
    Incremental.create ?mode ~r:(empty_like sc.r) ~s:(empty_like sc.s)
      ~key:sc.key sc.ilfds
  in
  (* One pass over both sides, inserting the rows [keep] selects. *)
  let pass keep =
    let step insert i t =
      if keep i then ignore (insert inc t);
      i + 1
    in
    let i =
      List.fold_left (step Incremental.insert_r) 0 (R.Relation.tuples sc.r)
    in
    ignore
      (List.fold_left (step Incremental.insert_s) i (R.Relation.tuples sc.s))
  in
  pass (fun i -> not (skip i));
  pass (fun i -> repeat i && not (skip i));
  inc

let conflict_of f =
  match f () with
  | _ -> None
  | exception Ilfd.Apply.Conflict_found c -> Some c

let describe_conflict (c : Ilfd.Apply.conflict) =
  Printf.sprintf "%s: %s vs %s" c.attribute
    (R.Value.to_string c.first)
    (R.Value.to_string c.second)

(* ---- the checks, in their fixed order ---- *)

(* ---- the per-tuple evaluator against the scan ---- *)

let same_derivation (a : Ilfd.Apply.derivation) (b : Ilfd.Apply.derivation) =
  String.equal a.attribute b.attribute
  && R.Value.equal a.value b.value
  && Ilfd.equal a.rule b.rule

let same_conflict (a : Ilfd.Apply.conflict) (b : Ilfd.Apply.conflict) =
  String.equal a.attribute b.attribute
  && R.Value.equal a.first b.first
  && R.Value.equal a.second b.second
  && Ilfd.equal a.rule b.rule

let same_extension a b =
  match (a, b) with
  | Ok (t1, d1), Ok (t2, d2) ->
      R.Tuple.equal t1 t2 && List.equal same_derivation d1 d2
  | Error c1, Error c2 -> same_conflict c1 c2
  | _ -> false

let describe_extension = function
  | Ok (t, ds) ->
      Printf.sprintf "%s by [%s]" (R.Tuple.to_string t)
        (String.concat "; "
           (List.map (fun (d : Ilfd.Apply.derivation) -> d.attribute) ds))
  | Error (c : Ilfd.Apply.conflict) ->
      Printf.sprintf "conflict on %s: %s vs %s" c.attribute
        (R.Value.to_string c.first)
        (R.Value.to_string c.second)

(* A probe: one family and one target for one side's rows, and how many
   of them must take the scan, when that is known. *)
type probe = {
  label : string;
  ilfds : Ilfd.t list;
  target : R.Schema.t;
  rows : R.Tuple.t list;
  scans : int option;
}

(* The seeded fault: the evaluator's derivations re-sorted by stratum,
   which loses the demand order whenever a lookup reaches a deep
   attribute before a shallow one. *)
let by_stratum ilfds = function
  | Error _ as e -> e
  | Ok (t, ds) ->
      let stratum = Reference.stratum ilfds in
      Ok
        ( t,
          List.stable_sort
            (fun (a : Ilfd.Apply.derivation) (b : Ilfd.Apply.derivation) ->
              Int.compare (stratum a.attribute) (stratum b.attribute))
            ds )

(* Every row of the probe through [Fixpoint.extend_tuple] and through
   the scan: the same tuple, the same derivations in the same order, the
   same witness; and exactly the expected rows counted as scans. *)
let run_probe check ~fault ~mode ~source p =
  let compiled = Ilfd.Apply.compile p.ilfds in
  let plan = Ilfd.Fixpoint.plan ~source ~target:p.target compiled in
  let telemetry = Telemetry.create () in
  let rec go = function
    | [] -> Ok ()
    | t :: rest ->
        let got =
          Ilfd.Fixpoint.extend_tuple ~mode ~telemetry plan t
          |> if fault = Stratum_order then by_stratum p.ilfds else Fun.id
        in
        let want =
          Ilfd.Apply.extend_tuple_compiled ~mode source t ~target:p.target
            compiled
        in
        if same_extension got want then go rest
        else
          fail check
            "%s probe, row %s: the per-tuple evaluator gives %s, the scan %s"
            p.label (R.Tuple.to_string t) (describe_extension got)
            (describe_extension want)
  in
  let* () = go p.rows in
  let scans = Telemetry.counter telemetry "ilfd.fixpoint.fallback_classes" in
  match p.scans with
  | Some n when n <> scans ->
      fail check "%s probe: %d of %d rows took the scan, expected %d" p.label
        scans (List.length p.rows) n
  | _ -> Ok ()

(* 2^53 + 1: no float equals it (the nearest, 2^53, is another number),
   and its match class is still exact. *)
let above_2_53 = R.Value.Int 9007199254740993

(* The probes for one side: the scenario's family and target; the
   family plus an echo of every consequent, over a target listing every
   attribute the family mentions, deepest first, so demand order and
   stratum order part; the family closed into a cycle, which no table
   evaluates; and rows whose first cell the family reads holds a number
   above 2^53, which the tables match exactly, with no scan. *)
let probes (sc : Scenario.t) rel =
  let source = R.Relation.schema rel in
  let rows = R.Relation.tuples rel in
  let target = Identify.extension_schema rel sc.key in
  let echo =
    List.sort_uniq compare
      (List.concat_map
         (fun rule ->
           List.map
             (fun (c : Ilfd.condition) -> (c.attribute, c.value))
             (Ilfd.consequent rule))
         sc.ilfds)
    |> List.map (fun (a, v) ->
           Ilfd.make1 [ Ilfd.condition a v ] ("echo_" ^ a) v)
  in
  let demand_ilfds = sc.ilfds @ echo in
  let stratum = Reference.stratum demand_ilfds in
  let wide =
    List.concat_map Ilfd.attributes demand_ilfds
    |> List.sort_uniq String.compare
    |> List.filter (fun a -> not (R.Schema.mem source a))
    |> List.stable_sort (fun a b -> Int.compare (stratum b) (stratum a))
  in
  let read =
    List.find_opt
      (fun a ->
        List.exists
          (fun rule ->
            List.exists
              (fun (c : Ilfd.condition) -> String.equal c.attribute a)
              (Ilfd.antecedent rule))
          sc.ilfds)
      (R.Schema.names source)
  in
  let cycle =
    List.find_map
      (fun rule ->
        match (Ilfd.antecedent rule, Ilfd.consequent rule) with
        | (a : Ilfd.condition) :: _, (c : Ilfd.condition) :: _ ->
            Some
              (Ilfd.make1
                 [ Ilfd.condition c.attribute c.value ]
                 a.attribute a.value)
        | _ -> None)
      sc.ilfds
  in
  let n = List.length rows in
  List.concat
    [
      [ { label = "scenario"; ilfds = sc.ilfds; target; rows; scans = None } ];
      [
        {
          label = "demand-order";
          ilfds = demand_ilfds;
          target = R.Schema.concat source (R.Schema.of_names wide);
          rows;
          scans = None;
        };
      ];
      (match cycle with
      | Some back ->
          [
            {
              label = "cyclic";
              ilfds = sc.ilfds @ [ back ];
              target;
              rows;
              scans = Some n;
            };
          ]
      | None -> []);
      (match read with
      | Some a ->
          [
            {
              label = "above-2^53";
              ilfds = sc.ilfds;
              target;
              rows = List.map (fun t -> R.Tuple.set source t a above_2_53) rows;
              scans = Some 0;
            };
          ]
      | None -> []);
    ]

let check_tuples ~fault ~mode check (sc : Scenario.t) =
  let side rel =
    let source = R.Relation.schema rel in
    List.fold_left
      (fun acc p ->
        Result.bind acc (fun () -> run_probe check ~fault ~mode ~source p))
      (Ok ()) (probes sc rel)
  in
  let* () = side sc.r in
  side sc.s

(* R′ and S′ inherit set semantics and code columns from R and S rather
   than re-establishing them, so both are held to what the tuple-based
   set-semantics pass and a cell-by-cell encode give, and to what the
   general constructor gives. *)
let check_fixpoint ~fault (sc : Scenario.t) (base : Identify.outcome) =
  let side name rel ext =
    let _, manual = manual_extension sc rel in
    let rows = R.Relation.tuples ext and schema = R.Relation.schema ext in
    let same_rows = List.equal R.Tuple.equal rows in
    let encoded = Reference.encode schema (Array.of_list rows) in
    if not (same_rows manual) then
      fail "fixpoint-agreement"
        "%s': fixpoint extension disagrees with per-tuple recursive \
         derivation"
        name
    else if
      match
        ( Reference.set_semantics schema
            ~keys:(R.Relation.declared_keys ext)
            rows,
          rebuild ext rows )
      with
      | kept, general ->
          not
            (same_rows kept
            && same_rows (R.Relation.tuples general)
            && R.Columnar.equal (R.Relation.columnar general) encoded)
      | exception R.Relation.Key_violation _ -> true
    then
      fail "fixpoint-agreement"
        "%s': set semantics collapse or reject its rows" name
    else if not (R.Columnar.equal (R.Relation.columnar ext) encoded) then
      fail "fixpoint-agreement"
        "%s': the code columns differ from an encode of its rows" name
    else Ok ()
  in
  let* () = side "R" sc.r base.r_extended in
  let* () = side "S" sc.s base.s_extended in
  check_tuples ~fault ~mode:Ilfd.Apply.First_rule "fixpoint-agreement" sc

(* Streamed execution must observe exactly the pairs the materialising
   engine produces, in the same row-major order. *)
let check_stream (sc : Scenario.t) (base : Identify.outcome) =
  let streamed =
    List.rev
      (Identify.run_stream ~r:sc.r ~s:sc.s ~key:sc.key ~init:[]
         ~f:(fun acc tr ts -> (tr, ts) :: acc)
         sc.ilfds)
  in
  if pairs_equal streamed base.pairs then Ok ()
  else
    fail "stream-agreement"
      "run_stream observes %d pairs vs run's %d, or in a different order"
      (List.length streamed) (List.length base.pairs)

(* Every seventh row goes in twice: the replay must hold set semantics,
   so its pairs (with their multiplicity) and its unmatched accounting
   both equal batch's. *)
let check_incremental ~fault (sc : Scenario.t) (base : Identify.outcome)
    ~engine_entries =
  let skip =
    match fault with
    | Lost_insert -> fun i -> i mod 7 = 6
    | _ -> fun _ -> false
  in
  let inc = replay ~skip ~repeat:(fun i -> i mod 7 = 0) sc in
  let* () =
    entry_sets_equal "incremental-replay" ~left:"incremental" ~right:"batch"
      (Incremental.entries inc) engine_entries
  in
  let unmatched_r = Incremental.unmatched_r inc
  and unmatched_s = Incremental.unmatched_s inc in
  if
    List.equal R.Tuple.equal unmatched_r base.unmatched_r
    && List.equal R.Tuple.equal unmatched_s base.unmatched_s
  then Ok ()
  else
    fail "incremental-replay"
      "incremental leaves %d R and %d S tuples unmatched, batch %d and %d"
      (List.length unmatched_r) (List.length unmatched_s)
      (List.length base.unmatched_r)
      (List.length base.unmatched_s)

let check_store (sc : Scenario.t) ~base_entries =
  Result.map_error
    (fun detail -> { check = "store-recovery"; family = ""; detail })
    (Store_oracle.check sc ~base_entries)

(* The family-specific reference oracle (k-database closure, MD
   fixpoint, merge policies). Family faults perturb inputs {e inside}
   the family check, so the caught check carries the family's name and
   the shrinker preserves the family along with it. *)
let check_family ~fault ~telemetry (sc : Scenario.t) (base : Identify.outcome)
    =
  let family_fault =
    match fault with
    | Kdb_lost_edge -> Families.Lost_edge
    | Md_phantom_match -> Families.Phantom_match
    | Merge_rogue_pair -> Families.Rogue_pair
    | No_fault | Broken_blocking_key | Drop_last_pair | Lost_insert
    | Stratum_order | Nmt_lost_pair | Algebra_lost_pair ->
        Families.No_fault
  in
  Result.map_error
    (fun (check, detail) -> { check; family = ""; detail })
    (Families.check ~fault:family_fault ~telemetry sc base)

let check_cluster (sc : Scenario.t) (base : Identify.outcome) =
  let cr = Cluster.integrate ~key:sc.key sc.ilfds [ ("r", sc.r); ("s", sc.s) ] in
  let cluster_pairs =
    List.concat_map
      (fun (c : Cluster.cluster) ->
        let of_db d =
          List.filter_map
            (fun (m : Cluster.member) ->
              if String.equal m.db d then Some m.tuple else None)
            c.members
        in
        List.concat_map
          (fun a -> List.map (fun b -> (a, b)) (of_db "s"))
          (of_db "r"))
      cr.clusters
  in
  let sort =
    List.sort (fun (a1, a2) (b1, b2) ->
        match R.Tuple.compare a1 b1 with
        | 0 -> R.Tuple.compare a2 b2
        | c -> c)
  in
  if pairs_equal (sort cluster_pairs) (sort base.pairs) then Ok ()
  else
    fail "cluster-agreement"
      "k-ary clustering yields %d R-S co-memberships, the pairwise pipeline \
       %d matched pairs"
      (List.length cluster_pairs)
      (List.length base.pairs)

let check_conflicts (sc : Scenario.t) =
  let batch =
    conflict_of (fun () ->
        Identify.run ~mode:Ilfd.Apply.Check_conflicts ~r:sc.r ~s:sc.s
          ~key:sc.key sc.ilfds)
  in
  let incr =
    conflict_of (fun () -> replay ~mode:Ilfd.Apply.Check_conflicts sc)
  in
  let* () =
    check_tuples ~fault:No_fault ~mode:Ilfd.Apply.Check_conflicts
      "conflict-agreement" sc
  in
  match (batch, incr) with
  | None, None -> Ok ()
  | Some a, Some b
    when String.equal a.attribute b.attribute
         && R.Value.equal a.first b.first
         && R.Value.equal a.second b.second ->
      Ok ()
  | Some a, Some b ->
      fail "conflict-agreement"
        "batch and incremental disagree on the conflict witness: %s vs %s"
        (describe_conflict a) (describe_conflict b)
  | Some a, None ->
      fail "conflict-agreement"
        "batch reports a conflict (%s); the incremental replay reports none"
        (describe_conflict a)
  | None, Some b ->
      fail "conflict-agreement"
        "incremental replay reports a conflict (%s); batch reports none"
        (describe_conflict b)

let check_uniqueness (base : Identify.outcome) mt =
  match base.violations @ MT.uniqueness_violations mt with
  | [] -> Ok ()
  | v :: _ as vs ->
      fail "uniqueness"
        "strict scenario yields %d uniqueness violations, e.g. %s"
        (List.length vs)
        (Format.asprintf "%a" MT.pp_violation v)

let check_consistency (sc : Scenario.t) (base : Identify.outcome) mt =
  let nmt = Negative.of_ilfds ~r:base.r_extended ~s:base.s_extended sc.ilfds in
  let report = Verify.check ~negative:nmt mt in
  if report.consistent_with_negative then Ok ()
  else
    fail "consistency"
      "MT and the ILFD-derived NMT share a pair on a strict scenario (MT %d \
       entries, NMT %d)"
      (MT.cardinality mt) (MT.cardinality nmt)

let check_soundness (sc : Scenario.t) mt =
  let c = Verify.against_truth ~truth:sc.truth mt in
  if c.false_matches = 0 then Ok ()
  else
    fail "soundness"
      "%d declared matches are outside the ground truth (%d true, %d missed)"
      c.false_matches c.true_matches c.missed_matches

let take n l = List.filteri (fun i _ -> i < n) l

let check_mono_ilfds (sc : Scenario.t) ~base_entries =
  let prefix = take (List.length sc.ilfds / 2) sc.ilfds in
  let o : Identify.outcome =
    Identify.run ~r:sc.r ~s:sc.s ~key:sc.key prefix
  in
  entry_subset "monotonicity-ilfds" ~sub:"half the ILFDs" ~super:"all ILFDs"
    (MT.entries o.matching_table)
    base_entries

(* ---- the Figure 3 partition against the three-valued reference ---- *)

(* A user distinctness rule over K_Ext: same first attribute, different
   last one. Its [=] atom gives it a blocking key and its [≠] atom keeps
   it from covering, so [Negative] evaluates it within hash buckets,
   while the Prop-1 rules (constant atoms only) take the nested loop. *)
let user_distinctness (sc : Scenario.t) =
  let attrs = EK.attributes sc.key in
  let last = List.nth attrs (List.length attrs - 1) in
  Rules.Distinctness.make ~name:"figure3-user"
    [
      Rules.Atom.eq_attrs (List.hd attrs);
      Rules.Atom.make
        (Rules.Atom.attr Rules.Atom.Left last)
        R.Predicate.Ne
        (Rules.Atom.attr Rules.Atom.Right last);
    ]

let figure3_snapshot (sc : Scenario.t) ilfds user =
  let t = Monotonic.create ~r:sc.r ~s:sc.s ~key:sc.key () in
  Monotonic.snapshot
    (Monotonic.add_distinctness (Monotonic.add_ilfds t ilfds) user)

let entries_of (sc : Scenario.t) (base : Identify.outcome) pairs =
  let rs = R.Relation.schema base.r_extended
  and ss = R.Relation.schema base.s_extended in
  let rk = R.Relation.primary_key sc.r and sk = R.Relation.primary_key sc.s in
  List.map
    (fun (t, u) ->
      { MT.r_key = R.Tuple.project rs t rk; s_key = R.Tuple.project ss u sk })
    pairs

(* [Monotonic.snapshot] and [Negative.of_rules] against
   [Reference.partition_naive] over R′ and S′: MT under the extended-key
   equivalence rule alone, NMT under the Prop-1 rules of the ILFDs plus
   [user_distinctness] alone. A pair in both is matched (monotonic.ml),
   and the rest of |R|×|S| is undetermined. On a strict scenario the two
   rule sets must also be consistent, and the partition must only grow
   from half the ILFDs to all of them (Section 3.3). *)
let check_figure3 ~fault (sc : Scenario.t) (base : Identify.outcome) =
  let check = "figure3-agreement" in
  let user = user_distinctness sc in
  let identity = [ EK.equivalence_rule sc.key ]
  and distinctness = user :: Negative.distinctness_rules_of_ilfds sc.ilfds in
  let naive ~identity ~distinctness =
    Reference.partition_naive ~identity ~distinctness base.r_extended
      base.s_extended
  in
  let mt_ref, _, _ = naive ~identity ~distinctness:[] in
  let _, nmt_ref, _ = naive ~identity:[] ~distinctness in
  let mt_ref = entries_of sc base mt_ref
  and nmt_ref = entries_of sc base nmt_ref in
  let not_matched_ref =
    List.filter (fun e -> not (List.exists (entry_equal e) mt_ref)) nmt_ref
  in
  let snap = figure3_snapshot sc sc.ilfds user in
  let not_matched =
    match (fault, List.rev (MT.entries snap.not_matched)) with
    | Nmt_lost_pair, _ :: kept -> List.rev kept
    | _, entries -> List.rev entries
  in
  let* () =
    entry_sets_equal check ~left:"the snapshot's MT" ~right:"the reference MT"
      (MT.entries snap.matched) mt_ref
  in
  let* () =
    entry_sets_equal check ~left:"Negative.of_rules"
      ~right:"the reference NMT"
      (MT.entries
         (Negative.of_rules ~r:base.r_extended ~s:base.s_extended
            distinctness))
      nmt_ref
  in
  let* () =
    entry_sets_equal check ~left:"the snapshot's not-matched set"
      ~right:"the reference NMT minus MT" not_matched not_matched_ref
  in
  let undetermined =
    (R.Relation.cardinality sc.r * R.Relation.cardinality sc.s)
    - List.length mt_ref
    - List.length not_matched_ref
  in
  if snap.undetermined_count <> undetermined then
    fail check "the snapshot counts %d undetermined pairs, the reference %d"
      snap.undetermined_count undetermined
  else if not sc.strict then Ok ()
  else
    match naive ~identity ~distinctness with
    | exception Reference.Inconsistent { identity; distinctness } ->
        fail check "identity rule %s and distinctness rule %s both fire on \
          a pair of a strict scenario" identity.name distinctness.name
    | _ ->
        let half =
          figure3_snapshot sc (take (List.length sc.ilfds / 2) sc.ilfds) user
        in
        if Monotonic.monotone_step half snap then Ok ()
        else
          fail check
            "a pair determined under half the ILFDs changes or loses its \
             verdict under all of them"

(* Section 4.2's second construction, the relational expressions of
   [Algebraic], shares no code with [Identify]: its matching table must
   be the engine's. Its doc lets it raise [Ill_formed] when the
   saturated rules disagree on a table row, which only a family with
   conflicting rules can do; such a scenario is counted, not failed. *)
let check_algebra ~fault ~telemetry (sc : Scenario.t) ~engine_entries =
  match Entity_id.Algebraic.run ~r:sc.r ~s:sc.s ~key:sc.key sc.ilfds with
  | exception Ilfd.Table.Ill_formed reason ->
      Telemetry.incr telemetry "checker.algebra.ill_formed";
      if sc.corruption.conflict_rules > 0 then Ok ()
      else
        fail "algebra-agreement"
          "the Section 4.2 expressions reject a family with no conflicting \
           rule: %s"
          reason
  | plan ->
      Telemetry.incr telemetry "checker.algebra.compared";
      let entries =
        MT.entries
          (Entity_id.Algebraic.matching_table plan
             ~r_key:(R.Relation.primary_key sc.r)
             ~s_key:(R.Relation.primary_key sc.s))
      in
      let entries =
        match (fault, List.rev entries) with
        | Algebra_lost_pair, _ :: kept -> List.rev kept
        | _ -> entries
      in
      entry_sets_equal "algebra-agreement" ~left:"Algebraic.run"
        ~right:"the engine" entries engine_entries

let check_mono_tuples (sc : Scenario.t) ~base_entries =
  match List.rev (R.Relation.tuples sc.r) with
  | [] -> Ok ()
  | _ :: rest ->
      let r' = rebuild sc.r (List.rev rest) in
      let o : Identify.outcome =
        Identify.run ~r:r' ~s:sc.s ~key:sc.key sc.ilfds
      in
      entry_subset "monotonicity-tuples" ~sub:"R minus one tuple"
        ~super:"full R"
        (MT.entries o.matching_table)
        base_entries

let check_permutation (sc : Scenario.t) ~base_entries =
  let rng = Rng.create (sc.seed lxor 0x7a3f) in
  let r' = rebuild sc.r (Rng.shuffle rng (R.Relation.tuples sc.r)) in
  let s' = rebuild sc.s (Rng.shuffle rng (R.Relation.tuples sc.s)) in
  let o : Identify.outcome =
    Identify.run ~r:r' ~s:s' ~key:sc.key sc.ilfds
  in
  entry_sets_equal "permutation" ~left:"permuted" ~right:"original"
    (MT.entries o.matching_table)
    base_entries

let check_relabel (sc : Scenario.t) ~base_entries =
  let pre n = "x_" ^ n in
  let relabel rel =
    let schema = R.Relation.schema rel in
    let mapping = List.map (fun n -> (n, pre n)) (R.Schema.names schema) in
    R.Relation.of_tuples
      (R.Schema.rename schema mapping)
      ~keys:(List.map (List.map pre) (R.Relation.declared_keys rel))
      (R.Relation.tuples rel)
  in
  let recondition (c : Ilfd.condition) =
    Ilfd.condition (pre c.attribute) c.value
  in
  let ilfds' =
    List.map
      (fun i ->
        Ilfd.make
          (List.map recondition (Ilfd.antecedent i))
          (List.map recondition (Ilfd.consequent i)))
      sc.ilfds
  in
  let o : Identify.outcome =
    Identify.run ~r:(relabel sc.r) ~s:(relabel sc.s)
      ~key:(EK.make (List.map pre (EK.attributes sc.key)))
      ilfds'
  in
  entry_sets_equal "relabel" ~left:"relabeled" ~right:"original"
    (MT.entries o.matching_table)
    base_entries

let run ?(fault = No_fault) ?(telemetry = Telemetry.off) (sc : Scenario.t) =
  let result =
    try
      Telemetry.span telemetry "checker.oracle" @@ fun () ->
      let base : Identify.outcome =
        Identify.run ~r:sc.r ~s:sc.s ~key:sc.key sc.ilfds
      in
      let base_entries = MT.entries base.matching_table in
      (* The fault perturbs "the engine's answer"; the checks then hold it
         against the untouched reference paths. *)
      let engine_entries =
        match fault with
        | Broken_blocking_key -> weak_join sc base
        | Drop_last_pair -> (
            match List.rev base_entries with
            | [] -> []
            | _ :: t -> List.rev t)
        | No_fault | Lost_insert | Kdb_lost_edge | Md_phantom_match
        | Merge_rogue_pair | Stratum_order | Nmt_lost_pair
        | Algebra_lost_pair ->
            base_entries
      in
      let mt =
        MT.make
          ~r_key_attrs:(R.Relation.primary_key sc.r)
          ~s_key_attrs:(R.Relation.primary_key sc.s)
          engine_entries
      in
      let* () = check_fixpoint ~fault sc base in
      let* () =
        entry_sets_equal "verdict-tables" ~left:"engine" ~right:"reference"
          engine_entries (reference_entries sc)
      in
      let* () = check_algebra ~fault ~telemetry sc ~engine_entries in
      let* () = check_figure3 ~fault sc base in
      let* () = check_stream sc base in
      let* () = check_incremental ~fault sc base ~engine_entries in
      let* () = check_store sc ~base_entries in
      let* () = check_cluster sc base in
      let* () = check_family ~fault ~telemetry sc base in
      let* () = if sc.corruption.check_conflicts then check_conflicts sc else Ok () in
      let* () = if sc.strict then check_uniqueness base mt else Ok () in
      let* () = if sc.strict then check_consistency sc base mt else Ok () in
      let* () = if sc.strict then check_soundness sc mt else Ok () in
      let* () = check_mono_ilfds sc ~base_entries in
      let* () = check_mono_tuples sc ~base_entries in
      let* () = check_permutation sc ~base_entries in
      check_relabel sc ~base_entries
    with e ->
      Error { check = "exception"; family = ""; detail = Printexc.to_string e }
  in
  (* Stamp every discrepancy with the scenario's family: the shrinker
     preserves (family, check), so a kdb counterexample cannot shrink
     into a degenerate instance failing some other family's way. *)
  Result.map_error
    (fun d -> { d with family = Scenario.kind_to_string (Scenario.kind_of sc) })
    result
