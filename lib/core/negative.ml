module Relation = Relational.Relation
module Schema = Relational.Schema
module V = Relational.Value
module Columnar = Relational.Columnar
module Code_table = Relational.Code_table
module Intern = Relational.Intern

module Itbl = Hashtbl.Make (Int)

(* The pairs some rule fires on, as ids [i * ns + j] into the two tuple
   arrays. e1 ≢ e2 is symmetric, so each rule is tried in both
   orientations (the paper's Table 4 entry fires with e1 = the S-tuple).
   A rule whose [=]-atoms imply equality on some attributes
   ([Rules.Distinctness.blocking_key]) only fires on pairs whose values
   there are non-NULL and equal under [Value.eq3], so R rows probe
   buckets of S rows over those columns; a rule with no such
   attributes — every Prop-1 rule, whose atoms all compare with
   constants — is evaluated on every pair. *)
let fired rules ~r ~s rt st =
  let sr = Relation.schema r and ss = Relation.schema s in
  let nr = Array.length rt and ns = Array.length st in
  let set = Itbl.create 64 in
  List.iter
    (fun rule ->
      (* A rule made only of same-attribute equalities fires on exactly
         the pairs its buckets propose — non-NULL values equal under
         [Value.eq3] on every mentioned attribute — so evaluating it per
         pair is redundant. Otherwise, resolve the rule's attribute lookups
         against the two schemas once; [hits] is then pure array/hash
         work per candidate pair. *)
      let hits =
        if Rules.Distinctness.equality_only rule then fun _ _ -> true
        else begin
          let applies_lr = Rules.Distinctness.compile rule sr ss
          and applies_rl = Rules.Distinctness.compile rule ss sr in
          fun i j ->
            applies_lr rt.(i) st.(j) = V.True
            || applies_rl st.(j) rt.(i) = V.True
        end
      in
      (* [all_rows candidates] — evaluate the rule over R's rows, where
         [candidates i k] calls [k j] for every j the rule could fire on
         with row i. The [mem] check only skips pairs an earlier rule
         already recorded. *)
      let all_rows candidates =
        for i = 0 to nr - 1 do
          candidates i (fun j ->
              let id = (i * ns) + j in
              if (not (Itbl.mem set id)) && hits i j then
                Itbl.replace set id ())
        done
      in
      match Rules.Distinctness.blocking_key rule with
      | Some attrs
        when List.for_all (Schema.mem sr) attrs
             && List.for_all (Schema.mem ss) attrs ->
          (* The blocking attributes bucket S rows on their match
             codes, so a rule's [e1.a = e2.a] meets [Int 1] and
             [Float 1.] as [Value.eq3] says, and a bucket's rows chain in
             ascending order. *)
          let matches rel =
            Array.map (Array.map Intern.match_code)
              (Columnar.columns (Relation.columnar rel) attrs)
          in
          let r_match = matches r and s_match = matches s in
          let table = Code_table.create ~chains:true ns in
          for j = 0 to ns - 1 do
            if not (Columnar.has_null s_match j) then
              ignore (Code_table.find_or_add table s_match j)
          done;
          all_rows (fun i k ->
              if not (Columnar.has_null r_match i) then
                let rec chain j =
                  if j >= 0 then begin
                    k j;
                    chain (Code_table.next table j)
                  end
                in
                chain (Code_table.find table s_match r_match i))
      | Some _ ->
          (* A blocking attribute is missing from one of the schemas: it
             reads as NULL on every tuple of that side, so the implied
             equality never holds and the rule never fires. *)
          ()
      | None ->
          all_rows (fun _ k ->
              for j = 0 to ns - 1 do
                k j
              done))
    rules;
  set

(* The fired pairs' key codes, gathered from R's and S's columns in
   row-major pair order: ascending ids. *)
let of_rules ~r ~s rules =
  let rt = Array.of_list (Relation.tuples r)
  and st = Array.of_list (Relation.tuples s) in
  let ns = Array.length st in
  let ids = Array.of_seq (Itbl.to_seq_keys (fired rules ~r ~s rt st)) in
  Array.sort Int.compare ids;
  let gather rel row =
    Array.map
      (fun col -> Array.map (fun id -> col.(row id)) ids)
      (Columnar.columns (Relation.columnar rel) (Relation.primary_key rel))
  in
  Matching_table.of_codes ~r_key_attrs:(Relation.primary_key r)
    ~s_key_attrs:(Relation.primary_key s)
    (Array.append
       (gather r (fun id -> id / ns))
       (gather s (fun id -> id mod ns)))

let distinctness_rules_of_ilfds ilfds =
  List.concat_map
    (fun i ->
      match Ilfd.Props.distinctness_rules_of_ilfd i with
      | rules -> rules
      | exception Rules.Distinctness.Ill_formed _ -> [])
    ilfds

let of_ilfds ~r ~s ilfds =
  of_rules ~r ~s (distinctness_rules_of_ilfds ilfds)
