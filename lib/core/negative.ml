module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
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
let fired rules sr rt ss st =
  let nr = Array.length rt and ns = Array.length st in
  let set = Itbl.create 64 in
  (* Interned column views of both sides, shared by every rule's coded
     buckets; forced only when some rule can block. *)
  let r_coded = lazy (Columnar.encode sr rt)
  and s_coded = lazy (Columnar.encode ss st) in
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
             ascending order. A row holding an ambiguous number (above
             2^53) takes the K_Ext join's fallback: it is tested against
             every row of the other side with [Intern.codes_match],
             which is [non_null_eq] on the values. *)
          let r_cols = Columnar.columns (Lazy.force r_coded) attrs
          and s_cols = Columnar.columns (Lazy.force s_coded) attrs in
          let matches = Array.map (Array.map Intern.match_code) in
          let r_match = matches r_cols and s_match = matches s_cols in
          let table = Code_table.create ~chains:true ns in
          let unsafe_s = ref [] in
          for j = 0 to ns - 1 do
            match Columnar.key_kind s_match j with
            | Safe_key -> ignore (Code_table.find_or_add table s_match j)
            | Unsafe_key -> unsafe_s := j :: !unsafe_s
            | Null_key -> ()
          done;
          let agree i j =
            Array.for_all2
              (fun rc sc -> Intern.codes_match rc.(i) sc.(j))
              r_cols s_cols
          in
          let test i k j = if agree i j then k j in
          all_rows (fun i k ->
              match Columnar.key_kind r_match i with
              | Null_key -> ()
              | Unsafe_key ->
                  for j = 0 to ns - 1 do
                    test i k j
                  done
              | Safe_key ->
                  let rec chain j =
                    if j >= 0 then begin
                      k j;
                      chain (Code_table.next table j)
                    end
                  in
                  chain (Code_table.find table s_match r_match i);
                  List.iter (test i k) !unsafe_s)
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

(* The fired pairs as one ascending list of S rows per R row. *)
let row_lists set ~nr ~ns =
  let rows = Array.make nr [] in
  Itbl.iter
    (fun id () ->
      let i = id / ns in
      rows.(i) <- (id mod ns) :: rows.(i))
    set;
  Array.map (List.sort Int.compare) rows

let of_rules ~r ~s rules =
  let sr = Relation.schema r and ss = Relation.schema s in
  let r_key = Relation.primary_key r and s_key = Relation.primary_key s in
  let rt = Array.of_list (Relation.tuples r)
  and st = Array.of_list (Relation.tuples s) in
  let d = fired rules sr rt ss st in
  (* Output in row-major pair order, visiting only the fired pairs. *)
  let d_rows = row_lists d ~nr:(Array.length rt) ~ns:(Array.length st) in
  let entries = ref [] in
  Array.iteri
    (fun i tr ->
      List.iter
        (fun j ->
          entries :=
            {
              Matching_table.r_key = Tuple.project sr tr r_key;
              s_key = Tuple.project ss st.(j) s_key;
            }
            :: !entries)
        d_rows.(i))
    rt;
  Matching_table.make ~r_key_attrs:r_key ~s_key_attrs:s_key
    (List.rev !entries)

let distinctness_rules_of_ilfds ilfds =
  List.concat_map
    (fun i ->
      match Ilfd.Props.distinctness_rules_of_ilfd i with
      | rules -> rules
      | exception Rules.Distinctness.Ill_formed _ -> [])
    ilfds

let of_ilfds ~r ~s ilfds =
  of_rules ~r ~s (distinctness_rules_of_ilfds ilfds)
