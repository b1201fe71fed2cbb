module Schema = Relational.Schema
module Tuple = Relational.Tuple
module V = Relational.Value
module Columnar = Relational.Columnar

module Itbl = Hashtbl.Make (Int)

type pairset = { ns : int; fired : unit Itbl.t }

let pair_id set i j = (i * set.ns) + j
let mem set i j = Itbl.mem set.fired (pair_id set i j)
let cardinality set = Itbl.length set.fired

let row_lists set ~nr =
  let rows = Array.make nr [] in
  Itbl.iter
    (fun id () ->
      let i = id / set.ns in
      rows.(i) <- (id mod set.ns) :: rows.(i))
    set.fired;
  Array.map (List.sort Int.compare) rows

let min_conflict a b =
  if a.ns <> b.ns then invalid_arg "Blocking.min_conflict: mismatched sides";
  if a.ns = 0 then None
  else
    let small, large =
      if Itbl.length a.fired <= Itbl.length b.fired then (a, b) else (b, a)
    in
    let best = ref max_int in
    Itbl.iter
      (fun id () -> if id < !best && Itbl.mem large.fired id then best := id)
      small.fired;
    if !best = max_int then None else Some (!best / a.ns, !best mod a.ns)

type 'rule spec = {
  rule_name : 'rule -> string;
  blocking_key : 'rule -> string list option;
  equality_only : 'rule -> bool;
  applies :
    'rule -> Schema.t -> Tuple.t -> Schema.t -> Tuple.t -> V.truth;
  compile :
    'rule -> Schema.t -> Schema.t -> Tuple.t -> Tuple.t -> V.truth;
}

let fired ?(telemetry = Telemetry.off) ?(label = "") spec rules sr rt ss st =
  let set = { ns = Array.length st; fired = Itbl.create 64 } in
  let nr = Array.length rt and ns = Array.length st in
  (* Counter namespace: "blocking" or "blocking.<label>", so the two
     rule kinds of a partition stay distinguishable in one sink. *)
  let pfx = if label = "" then "blocking" else "blocking." ^ label in
  let tele_on = Telemetry.enabled telemetry in
  (* Interned column views of both sides, shared by every rule's coded
     buckets; forced only when some rule can block. *)
  let r_coded = lazy (Columnar.encode sr rt)
  and s_coded = lazy (Columnar.encode ss st) in
  List.iter
    (fun rule ->
      let fired_before = if tele_on then Itbl.length set.fired else 0 in
      (* A rule made only of same-attribute equalities fires on exactly
         the pairs its blocking buckets propose — identical non-NULL
         values on every mentioned attribute — so evaluating it per pair
         is redundant. Otherwise, resolve the rule's attribute lookups
         against the two schemas once; [hits] is then pure array/hash
         work per candidate pair. *)
      let hits =
        if spec.equality_only rule then fun _ _ -> true
        else begin
          let applies_lr = spec.compile rule sr ss
          and applies_rl = spec.compile rule ss sr in
          fun i j ->
            applies_lr rt.(i) st.(j) = V.True
            || applies_rl st.(j) rt.(i) = V.True
        end
      in
      (* [all_rows candidates] — evaluate the rule over R's rows, where
         [candidates i k] calls [k j] for every j the rule could fire on
         with row i. Candidate pairs proposed (callback invocations) are
         a pure function of the blocking structure, not of the fired
         set. The [mem] check only skips re-evaluating pairs already
         recorded by an earlier rule; within one rule no (i, j) is
         proposed twice (each row probes exactly one bucket of distinct
         js). The per-pair cost when the sink is off is one branch on an
         immutable bool — dwarfed by the compiled-rule evaluation it
         sits next to. *)
      let all_rows candidates =
        let cand = ref 0 in
        for i = 0 to nr - 1 do
          candidates i (fun j ->
              if tele_on then incr cand;
              let id = pair_id set i j in
              if (not (Itbl.mem set.fired id)) && hits i j then
                Itbl.replace set.fired id ())
        done;
        if tele_on then Telemetry.add telemetry (pfx ^ ".candidates") !cand
      in
      (match spec.blocking_key rule with
      | Some attrs
        when List.for_all (Schema.mem sr) attrs
             && List.for_all (Schema.mem ss) attrs ->
          (* The rule only fires on pairs with identical non-NULL values
             on [attrs] — in either orientation, since the implied
             equality is attribute-to-same-attribute. Probe R buckets
             against S buckets and evaluate only co-bucketed pairs.
             Both sides' interned key columns are projected once, so
             bucket keys are small int arrays — hashing, equality and
             the per-candidate probe are pure integer work, no per-tuple
             value projection. Storage codes partition values exactly
             like structural equality on the values themselves, so the
             buckets (and the [.buckets] counter) are those of a
             value-keyed table. *)
          let r_cols = Columnar.columns (Lazy.force r_coded) attrs
          and s_cols = Columnar.columns (Lazy.force s_coded) attrs in
          let s_buckets = Hashtbl.create (max 16 ns) in
          for j = 0 to ns - 1 do
            match Columnar.key_opt s_cols j with
            | Some k -> (
                match Hashtbl.find_opt s_buckets k with
                | Some l -> l := j :: !l
                | None -> Hashtbl.add s_buckets k (ref [ j ]))
            | None -> ()
          done;
          Telemetry.add telemetry (pfx ^ ".buckets") (Hashtbl.length s_buckets);
          all_rows (fun i k ->
              match Columnar.key_opt r_cols i with
              | Some key -> (
                  match Hashtbl.find_opt s_buckets key with
                  | Some js -> List.iter k !js
                  | None -> ())
              | None -> ())
      | Some _ ->
          (* A blocking attribute is missing from one of the schemas: it
             reads as NULL on every tuple of that side, so the implied
             equality can never hold and the rule never fires — no scan
             at all. *)
          ()
      | None ->
          (* No equality atoms to block on: nested-loop fallback over
             the full S side. *)
          all_rows (fun _ k ->
              for j = 0 to ns - 1 do
                k j
              done));
      if tele_on then
        Telemetry.add telemetry
          (pfx ^ ".rule." ^ spec.rule_name rule ^ ".fired")
          (Itbl.length set.fired - fired_before))
    rules;
  if tele_on then
    Telemetry.add telemetry (pfx ^ ".fired") (Itbl.length set.fired);
  set
