module R = Relational
module MT = Entity_id.Matching_table
module EK = Entity_id.Extended_key
module Identify = Entity_id.Identify
module Decision = Entity_id.Decision
module Incremental = Entity_id.Incremental
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

let all_faults =
  [
    No_fault;
    Broken_blocking_key;
    Drop_last_pair;
    Lost_insert;
    Kdb_lost_edge;
    Md_phantom_match;
    Merge_rogue_pair;
  ]

let fault_to_string = function
  | No_fault -> "none"
  | Broken_blocking_key -> "broken-blocking-key"
  | Drop_last_pair -> "drop-last-pair"
  | Lost_insert -> "lost-insert"
  | Kdb_lost_edge -> "kdb-lost-edge"
  | Md_phantom_match -> "md-phantom-match"
  | Merge_rogue_pair -> "merge-rogue-pair"

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
  let pass keep inc =
    let step insert (inc, i) t =
      ((if keep i then fst (insert inc t) else inc), i + 1)
    in
    let inc, i =
      List.fold_left (step Incremental.insert_r) (inc, 0)
        (R.Relation.tuples sc.r)
    in
    fst
      (List.fold_left (step Incremental.insert_s) (inc, i)
         (R.Relation.tuples sc.s))
  in
  inc
  |> pass (fun i -> not (skip i))
  |> pass (fun i -> repeat i && not (skip i))

let conflict_of f =
  match f () with
  | _ -> None
  | exception Ilfd.Apply.Conflict_found c -> Some c

let describe_conflict (c : Ilfd.Apply.conflict) =
  Printf.sprintf "%s: %s vs %s" c.attribute
    (R.Value.to_string c.first)
    (R.Value.to_string c.second)

(* ---- the checks, in their fixed order ---- *)

let check_fixpoint (sc : Scenario.t) (base : Identify.outcome) =
  let side name rel ext =
    let _, manual = manual_extension sc rel in
    if List.equal R.Tuple.equal manual (R.Relation.tuples ext) then Ok ()
    else
      fail "fixpoint-agreement"
        "%s': semi-naive fixpoint extension disagrees with per-tuple \
         recursive derivation"
        name
  in
  let* () = side "R" sc.r base.r_extended in
  side "S" sc.s base.s_extended

let check_partition (sc : Scenario.t) (base : Identify.outcome) =
  let identity = [ EK.equivalence_rule sc.key ] in
  let m0, d0, u0 =
    Decision.partition_naive ~identity ~distinctness:[] base.r_extended
      base.s_extended
  in
  let agree name (m, d, u) =
    if pairs_equal m m0 && pairs_equal d d0 && pairs_equal u u0 then Ok ()
    else
      fail "partition-agreement"
        "%s partition differs from naive: %d/%d/%d vs %d/%d/%d \
         (matched/distinct/undetermined)"
        name (List.length m) (List.length d) (List.length u) (List.length m0)
        (List.length d0) (List.length u0)
  in
  let* () =
    agree "blocked"
      (Decision.partition ~identity ~distinctness:[] base.r_extended
         base.s_extended)
  in
  agree "parallel(jobs=3)"
    (Decision.partition ~jobs:3 ~identity ~distinctness:[] base.r_extended
       base.s_extended)

let check_jobs (sc : Scenario.t) (base : Identify.outcome) =
  let o : Identify.outcome =
    Identify.run ~jobs:4 ~r:sc.r ~s:sc.s ~key:sc.key sc.ilfds
  in
  if
    R.Relation.equal o.r_extended base.r_extended
    && R.Relation.equal o.s_extended base.s_extended
    && List.equal entry_equal
         (MT.entries o.matching_table)
         (MT.entries base.matching_table)
    && pairs_equal o.pairs base.pairs
    && List.equal R.Tuple.equal o.unmatched_r base.unmatched_r
    && List.equal R.Tuple.equal o.unmatched_s base.unmatched_s
    && List.length o.violations = List.length base.violations
  then Ok ()
  else
    fail "jobs-invariance"
      "outcome at jobs=4 differs from jobs=1 (%d vs %d entries, %d vs %d \
       violations)"
      (MT.cardinality o.matching_table)
      (MT.cardinality base.matching_table)
      (List.length o.violations)
      (List.length base.violations)

(* Streamed execution must observe exactly the pairs the materialising
   engine produces, in the same row-major order, at every job count. *)
let check_stream (sc : Scenario.t) (base : Identify.outcome) =
  let cell jobs =
    let streamed =
      List.rev
        (Identify.run_stream ~jobs ~r:sc.r ~s:sc.s ~key:sc.key ~init:[]
           ~f:(fun acc tr ts -> (tr, ts) :: acc)
           sc.ilfds)
    in
    if pairs_equal streamed base.pairs then Ok ()
    else
      fail "stream-agreement"
        "run_stream at jobs=%d observes %d pairs vs run's %d, or in a \
         different order"
        jobs (List.length streamed) (List.length base.pairs)
  in
  List.fold_left
    (fun acc jobs -> Result.bind acc (fun () -> cell jobs))
    (Ok ()) [ 1; 2; 4 ]

(* Bucketing the tagged verdict stream by Match_result must reproduce
   Decision.partition's three lists byte-for-byte. *)
let check_partition_stream (sc : Scenario.t) (base : Identify.outcome) =
  let identity = [ EK.equivalence_rule sc.key ] in
  let m0, d0, u0 =
    Decision.partition ~identity ~distinctness:[] base.r_extended
      base.s_extended
  in
  let cell jobs =
    let m, d, u =
      Decision.partition_stream ~jobs ~identity ~distinctness:[]
        ~init:([], [], [])
        ~f:(fun (m, d, u) result tr ts ->
          match result with
          | Entity_id.Match_result.Match -> ((tr, ts) :: m, d, u)
          | Entity_id.Match_result.No_match -> (m, (tr, ts) :: d, u)
          | Entity_id.Match_result.Undetermined -> (m, d, (tr, ts) :: u))
        base.r_extended base.s_extended
    in
    if
      pairs_equal (List.rev m) m0
      && pairs_equal (List.rev d) d0
      && pairs_equal (List.rev u) u0
    then Ok ()
    else
      fail "stream-agreement"
        "partition_stream at jobs=%d rebuckets to %d/%d/%d vs partition's \
         %d/%d/%d (matched/distinct/undetermined)"
        jobs (List.length m) (List.length d) (List.length u)
        (List.length m0) (List.length d0) (List.length u0)
  in
  List.fold_left
    (fun acc jobs -> Result.bind acc (fun () -> cell jobs))
    (Ok ()) [ 1; 2 ]

let check_rules (sc : Scenario.t) ~engine_entries =
  let o : Identify.outcome =
    Identify.run_rules
      ~identity:[ EK.equivalence_rule sc.key ]
      ~r:sc.r ~s:sc.s ~key:sc.key sc.ilfds
  in
  entry_sets_equal "rules-vs-join" ~left:"rule-engine" ~right:"join-engine"
    (MT.entries o.matching_table)
    engine_entries

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
    | No_fault | Broken_blocking_key | Drop_last_pair | Lost_insert ->
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
        | Merge_rogue_pair ->
            base_entries
      in
      let mt =
        MT.make
          ~r_key_attrs:(R.Relation.primary_key sc.r)
          ~s_key_attrs:(R.Relation.primary_key sc.s)
          engine_entries
      in
      let* () = check_fixpoint sc base in
      let* () =
        entry_sets_equal "verdict-tables" ~left:"engine" ~right:"reference"
          engine_entries (reference_entries sc)
      in
      let* () = check_partition sc base in
      let* () = check_jobs sc base in
      let* () = check_stream sc base in
      let* () = check_partition_stream sc base in
      let* () = check_rules sc ~engine_entries in
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
