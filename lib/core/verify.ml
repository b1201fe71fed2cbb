module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple

type report = {
  uniqueness : Matching_table.violation list;
  consistent_with_negative : bool;
}

let check ?negative mt =
  {
    uniqueness = Matching_table.uniqueness_violations mt;
    consistent_with_negative =
      (match negative with
      | None -> true
      | Some nmt -> Matching_table.consistent mt nmt);
  }

let is_sound_wrt_constraints r =
  r.uniqueness = [] && r.consistent_with_negative

type truth_comparison = {
  true_matches : int;
  false_matches : int;
  missed_matches : int;
  true_non_matches : int;
  false_non_matches : int;
}

let against_truth ~truth ?negative mt =
  let truth_table =
    Matching_table.make ~r_key_attrs:(Matching_table.r_key_attrs mt)
      ~s_key_attrs:(Matching_table.s_key_attrs mt) truth
  in
  let count p l = List.length (List.filter p l) in
  let declared = Matching_table.entries mt in
  let true_matches = count (Matching_table.mem truth_table) declared in
  let negative_entries =
    match negative with None -> [] | Some nmt -> Matching_table.entries nmt
  in
  let false_non_matches =
    count (Matching_table.mem truth_table) negative_entries
  in
  {
    true_matches;
    false_matches = List.length declared - true_matches;
    missed_matches = count (fun e -> not (Matching_table.mem mt e)) truth;
    true_non_matches = List.length negative_entries - false_non_matches;
    false_non_matches;
  }

let sound_wrt_truth c = c.false_matches = 0 && c.false_non_matches = 0

let add_domain_attribute name value r =
  let schema = Relation.schema r in
  let wide = Schema.concat schema (Schema.of_names [ name ]) in
  Relation.of_tuples wide
    ~keys:(Relation.declared_keys r)
    (List.map
       (fun t -> Tuple.of_array wide (Array.append (Tuple.to_array t) [| value |]))
       (Relation.tuples r))

let pp_report ppf r =
  if is_sound_wrt_constraints r then
    Format.pp_print_string ppf "Message: The extended key is verified."
  else begin
    Format.pp_print_string ppf
      "Message: The extended key causes unsound matching result.";
    List.iter
      (fun v -> Format.fprintf ppf "@,  %a" Matching_table.pp_violation v)
      r.uniqueness;
    if not r.consistent_with_negative then
      Format.fprintf ppf "@,  a pair appears in both MT and NMT"
  end

let pp_truth_comparison ppf c =
  Format.fprintf ppf
    "true-matches=%d false-matches=%d missed=%d true-non-matches=%d \
     false-non-matches=%d"
    c.true_matches c.false_matches c.missed_matches c.true_non_matches
    c.false_non_matches
