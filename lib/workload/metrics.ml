type t = {
  precision : float;
  recall : float;
  f1 : float;
  declared : int;
  correct : int;
  truth_size : int;
}

module MT = Entity_id.Matching_table

(* [mt]'s entries that are true: each probes one table of the truth,
   keyed as [mt] is. *)
let true_entries ~truth mt =
  let table =
    MT.make ~r_key_attrs:(MT.r_key_attrs mt) ~s_key_attrs:(MT.s_key_attrs mt)
      truth
  in
  List.partition (MT.mem table) (MT.entries mt)

let evaluate ~truth mt =
  let right, wrong = true_entries ~truth mt in
  let correct = List.length right in
  let declared = correct + List.length wrong in
  let truth_size = List.length truth in
  (* Empty-edge conventions (every quotient below must stay finite —
     these feed straight into bench tables):
     - declared = 0: nothing claimed, nothing wrong — precision 1 by
       convention (and recall 0 unless truth is empty too);
     - truth = 0: nothing to find — recall 1 by convention;
     - both empty: P = R = F1 = 1, the vacuous perfect score;
     - P + R = 0: F1's quotient is 0/0 — define F1 = 0. *)
  let precision =
    if declared = 0 then 1.0 else float_of_int correct /. float_of_int declared
  in
  let recall =
    if truth_size = 0 then 1.0
    else float_of_int correct /. float_of_int truth_size
  in
  let f1 =
    if precision +. recall = 0.0 then 0.0
    else 2.0 *. precision *. recall /. (precision +. recall)
  in
  { precision; recall; f1; declared; correct; truth_size }

let soundness_violations ~truth mt = snd (true_entries ~truth mt)

let pp ppf m =
  Format.fprintf ppf "P=%.3f R=%.3f F1=%.3f (%d declared, %d correct, %d true)"
    m.precision m.recall m.f1 m.declared m.correct m.truth_size

let to_row m =
  [
    Printf.sprintf "%.3f" m.precision;
    Printf.sprintf "%.3f" m.recall;
    Printf.sprintf "%.3f" m.f1;
    string_of_int m.declared;
    string_of_int m.correct;
  ]
