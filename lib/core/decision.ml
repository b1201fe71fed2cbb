module V = Relational.Value

type verdict = {
  result : Match_result.t;
  identity : Rules.Identity.t option;
  distinctness : Rules.Distinctness.t option;
}

exception Inconsistent of {
  identity : Rules.Identity.t;
  distinctness : Rules.Distinctness.t;
}

exception Blocking_desync of {
  r_tuple : Relational.Tuple.t;
  s_tuple : Relational.Tuple.t;
}

let decide ~identity ~distinctness s1 t1 s2 t2 =
  (* Both rule kinds state symmetric facts about (e1, e2); try each rule
     in both orientations. *)
  let fired_identity =
    List.find_opt
      (fun rule ->
        Rules.Identity.applies rule s1 t1 s2 t2 = V.True
        || Rules.Identity.applies rule s2 t2 s1 t1 = V.True)
      identity
  in
  let fired_distinctness =
    List.find_opt
      (fun rule ->
        Rules.Distinctness.applies rule s1 t1 s2 t2 = V.True
        || Rules.Distinctness.applies rule s2 t2 s1 t1 = V.True)
      distinctness
  in
  match fired_identity, fired_distinctness with
  | Some i, Some d -> raise (Inconsistent { identity = i; distinctness = d })
  | Some _, None ->
      { result = Match_result.Match;
        identity = fired_identity;
        distinctness = None }
  | None, Some _ ->
      { result = Match_result.No_match;
        identity = None;
        distinctness = fired_distinctness }
  | None, None ->
      { result = Match_result.Undetermined;
        identity = None;
        distinctness = None }

let partition_naive ~identity ~distinctness r s =
  let sr = Relational.Relation.schema r
  and ss = Relational.Relation.schema s in
  let matched = ref [] and distinct = ref [] and unknown = ref [] in
  Relational.Relation.iter
    (fun tr ->
      Relational.Relation.iter
        (fun ts ->
          let v = decide ~identity ~distinctness sr tr ss ts in
          let bucket =
            match v.result with
            | Match_result.Match -> matched
            | Match_result.No_match -> distinct
            | Match_result.Undetermined -> unknown
          in
          bucket := (tr, ts) :: !bucket)
        s)
    r;
  (List.rev !matched, List.rev !distinct, List.rev !unknown)

let identity_spec =
  {
    Blocking.rule_name = (fun (rule : Rules.Identity.t) -> rule.name);
    blocking_key = Rules.Identity.blocking_key;
    equality_only = Rules.Identity.equality_only;
    applies = Rules.Identity.applies;
    compile = Rules.Identity.compile;
  }

let distinctness_spec =
  {
    Blocking.rule_name = (fun (rule : Rules.Distinctness.t) -> rule.name);
    blocking_key = Rules.Distinctness.blocking_key;
    equality_only = Rules.Distinctness.equality_only;
    applies = Rules.Distinctness.applies;
    compile = Rules.Distinctness.compile;
  }

(* The front half of [partition_stream]: the two blocking passes plus
   the pair-space accounting. [pairs_naive] is the theoretical |R|×|S|
   pair space; what the blocking passes actually propose is
   [pairs_considered]. Candidate counters accumulate across
   [Blocking.fired] calls in one sink, so the pairs actually considered
   by THIS partition are the delta around its two blocking passes. *)
let block_pair_space ~telemetry ~identity ~distinctness sr rt ss st =
  let tele_on = Telemetry.enabled telemetry in
  let considered_counters t =
    Telemetry.counter t "blocking.identity.candidates"
    + Telemetry.counter t "blocking.distinctness.candidates"
  in
  let considered_before = if tele_on then considered_counters telemetry else 0 in
  let m =
    Telemetry.span telemetry "partition.block.identity" (fun () ->
        Blocking.fired ~telemetry ~label:"identity" identity_spec
          identity sr rt ss st)
  in
  let d =
    Telemetry.span telemetry "partition.block.distinctness" (fun () ->
        Blocking.fired ~telemetry ~label:"distinctness"
          distinctness_spec distinctness sr rt ss st)
  in
  Telemetry.add telemetry "partition.pairs_naive"
    (Array.length rt * Array.length st);
  if tele_on then
    Telemetry.add telemetry "partition.pairs_considered"
      (considered_counters telemetry - considered_before);
  (m, d)

(* A pair in both fired sets is an Inconsistent/Blocking_desync witness;
   the row walk assumes the sets are disjoint, so detect the conflict up
   front. [min_conflict] returns the row-major-minimal shared pair — the
   one the naive nested scan raises on first — and [decide_pair] then
   raises with the same witnessing rules.
   The scan is skipped entirely when either side fired nothing (the
   common case: the flagship workload has no distinctness firings at
   all), instead of paying a full conflict scan per run for nothing. *)
let check_conflicts ~decide_pair sr rt ss st m d =
  if Blocking.cardinality m > 0 && Blocking.cardinality d > 0 then
    match Blocking.min_conflict m d with
    | Some (i, j) ->
        ignore (decide_pair sr rt.(i) ss st.(j) : verdict);
        raise (Blocking_desync { r_tuple = rt.(i); s_tuple = st.(j) })
    | None -> ()

let resolve_decide_hook ~identity ~distinctness = function
  (* [decide_pair] is what the both-fired arm re-runs to reproduce the
     naive engine's exception; the hook exists so the correctness
     harness can inject a desynchronised decision function and exercise
     the [Blocking_desync] path. *)
  | Some f -> f
  | None -> fun sr tr ss ts -> decide ~identity ~distinctness sr tr ss ts

(* The sparse row walk: every pair in strict row-major (i, j) order,
   tagged by skipping past the row's two ascending fired lists with
   integer compares. Nothing is decided per pair — both-fired conflicts
   are detected from the fired sets before the walk starts — so the cost
   is one emit per cell of the nr × ns cross product, not a decision
   branch. *)
let stream_rows ~nr ~ns ~m_rows ~d_rows ~emit =
  for i = 0 to nr - 1 do
    let rec walk j ms ds =
      if j < ns then
        match ms with
        | jm :: mrest when jm = j ->
            emit Match_result.Match i j;
            walk (j + 1) mrest ds
        | _ -> (
            match ds with
            | jd :: drest when jd = j ->
                emit Match_result.No_match i j;
                walk (j + 1) ms drest
            | _ ->
                emit Match_result.Undetermined i j;
                walk (j + 1) ms ds)
    in
    walk 0 m_rows.(i) d_rows.(i)
  done

let partition_stream ?(telemetry = Telemetry.off) ?decide:decide_hook
    ~identity ~distinctness ~init ~f r s =
  let sr = Relational.Relation.schema r
  and ss = Relational.Relation.schema s in
  let decide_pair = resolve_decide_hook ~identity ~distinctness decide_hook in
  let rt = Array.of_list (Relational.Relation.tuples r)
  and st = Array.of_list (Relational.Relation.tuples s) in
  let nr = Array.length rt and ns = Array.length st in
  let tele_on = Telemetry.enabled telemetry in
  let m, d =
    block_pair_space ~telemetry ~identity ~distinctness sr rt ss st
  in
  let n_m = ref 0 and n_d = ref 0 and n_u = ref 0 in
  let acc = ref init in
  let consume result i j =
    if tele_on then
      incr
        (match result with
        | Match_result.Match -> n_m
        | Match_result.No_match -> n_d
        | Match_result.Undetermined -> n_u);
    acc := f !acc result rt.(i) st.(j)
  in
  (Telemetry.span telemetry "partition.merge" @@ fun () ->
   check_conflicts ~decide_pair sr rt ss st m d;
   stream_rows ~nr ~ns ~m_rows:(Blocking.row_lists m ~nr)
     ~d_rows:(Blocking.row_lists d ~nr) ~emit:consume);
  if tele_on then begin
    Telemetry.add telemetry "partition.matched" !n_m;
    Telemetry.add telemetry "partition.distinct" !n_d;
    Telemetry.add telemetry "partition.undetermined" !n_u
  end;
  !acc

let partition ?telemetry ?decide ~identity ~distinctness r s =
  let matched = ref [] and distinct = ref [] and unknown = ref [] in
  partition_stream ?telemetry ?decide ~identity ~distinctness ~init:()
    ~f:(fun () result tr ts ->
      let bucket =
        match result with
        | Match_result.Match -> matched
        | Match_result.No_match -> distinct
        | Match_result.Undetermined -> unknown
      in
      bucket := (tr, ts) :: !bucket)
    r s;
  (List.rev !matched, List.rev !distinct, List.rev !unknown)
