(* Tests for the paper's core contribution: extended keys, the
   three-valued decision function (the checker's reference) and the
   blocked negative table held to it, matching/negative tables with their
   uniqueness and consistency constraints, the Identify pipeline against
   the paper's own tables (2, 3, 4, 5, 6, 7), the integrated table, the
   monotonic engine (Figure 3), the algebraic construction (Section 4.2),
   and the Figure 2 soundness scenario. *)

module R = Relational
module V = R.Value
module E = Entity_id
module Ref = Checker.Reference
module PD = Workload.Paper_data
open Helpers

let case name f = Alcotest.test_case name `Quick f

let get schema t a = V.to_string (R.Tuple.get schema t a)

(* ---- Match_result ---- *)

let match_result_tests =
  [
    case "refines lattice" (fun () ->
        let open Checker.Match_result in
        Alcotest.(check bool) "" true (refines Undetermined Match);
        Alcotest.(check bool) "" true (refines Undetermined No_match);
        Alcotest.(check bool) "" true (refines Match Match);
        Alcotest.(check bool) "" false (refines Match No_match);
        Alcotest.(check bool) "" false (refines No_match Undetermined));
    case "of_truth" (fun () ->
        let open Checker.Match_result in
        Alcotest.(check bool) "" true (equal (of_truth V.True) Match);
        Alcotest.(check bool) "" true (equal (of_truth V.False) No_match);
        Alcotest.(check bool) "" true
          (equal (of_truth V.Unknown) Undetermined));
  ]

(* ---- Extended_key ---- *)

let extended_key_tests =
  [
    check_raises_any "empty key rejected" (fun () -> E.Extended_key.make []);
    check_raises_any "duplicate attrs rejected" (fun () ->
        E.Extended_key.make [ "a"; "a" ]);
    case "equivalence rule is a valid identity rule" (fun () ->
        let rule =
          E.Extended_key.equivalence_rule (E.Extended_key.make [ "a"; "b" ])
        in
        Alcotest.(check int) "" 2 (List.length rule.Rules.Identity.atoms));
    case "candidate attributes include derivable" (fun () ->
        let cands =
          E.Extended_key.candidate_attributes PD.table5_r PD.table5_s
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "name" true (List.mem "name" cands);
        Alcotest.(check bool) "cuisine (derived in S)" true
          (List.mem "cuisine" cands);
        Alcotest.(check bool) "speciality (derived in R)" true
          (List.mem "speciality" cands);
        Alcotest.(check bool) "street is R-only" false
          (List.mem "street" cands));
    case "covers_keys" (fun () ->
        let k = E.Extended_key.make [ "name"; "cuisine"; "speciality" ] in
        Alcotest.(check bool) "" true
          (E.Extended_key.covers_keys k ~r_key:[ "name"; "cuisine" ]
             ~s_key:[ "name"; "speciality" ]);
        Alcotest.(check bool) "" false
          (E.Extended_key.covers_keys k ~r_key:[ "street" ] ~s_key:[]));
    case "is_minimal_for instance" (fun () ->
        let world =
          relation [ "a"; "b"; "c" ] []
            [ [ "1"; "x"; "p" ]; [ "1"; "y"; "q" ]; [ "2"; "x"; "q" ] ]
        in
        Alcotest.(check bool) "ab minimal" true
          (E.Extended_key.is_minimal_for (E.Extended_key.make [ "a"; "b" ])
             world);
        Alcotest.(check bool) "abc not minimal" false
          (E.Extended_key.is_minimal_for
             (E.Extended_key.make [ "a"; "b"; "c" ])
             world));
  ]

(* ---- The three-valued decision function (the checker's reference) ---- *)

(* [Negative.of_rules] lists exactly the reference's not-matching pairs,
   by candidate key, in row-major order. *)
let nmt_agrees_with_reference ~distinctness r s =
  let _, d, _ = Ref.partition_naive ~identity:[] ~distinctness r s in
  let project rel t =
    R.Tuple.project (R.Relation.schema rel) t (R.Relation.primary_key rel)
  in
  let same (a : E.Matching_table.entry) (b : E.Matching_table.entry) =
    R.Tuple.equal a.r_key b.r_key && R.Tuple.equal a.s_key b.s_key
  in
  List.equal same
    (List.map
       (fun (tr, ts) ->
         { E.Matching_table.r_key = project r tr; s_key = project s ts })
       d)
    (E.Matching_table.entries (E.Negative.of_rules ~r ~s distinctness))

let decision_tests =
  let schema = R.Schema.of_names [ "name"; "cuisine"; "speciality" ] in
  let tup vals = R.Tuple.make schema (List.map v vals) in
  let ek = E.Extended_key.make [ "name"; "cuisine" ] in
  let identity = [ E.Extended_key.equivalence_rule ek ] in
  let distinctness =
    Ilfd.Props.distinctness_rules_of_ilfd
      (Ilfd.parse "speciality = Mughalai -> cuisine = Indian")
  in
  [
    case "match via identity rule" (fun () ->
        let verdict =
          Ref.decide ~identity ~distinctness schema
            (tup [ "A"; "Chinese"; "Hunan" ])
            schema
            (tup [ "A"; "Chinese"; "Hunan" ])
        in
        Alcotest.(check bool) "" true
          (Checker.Match_result.equal verdict.result Checker.Match_result.Match);
        Alcotest.(check bool) "witness rule" true
          (Option.is_some verdict.identity));
    case "no-match via distinctness rule" (fun () ->
        let verdict =
          Ref.decide ~identity ~distinctness schema
            (tup [ "A"; "Indian"; "Mughalai" ])
            schema
            (tup [ "B"; "Greek"; "Gyros" ])
        in
        Alcotest.(check bool) "" true
          (Checker.Match_result.equal verdict.result Checker.Match_result.No_match));
    case "distinctness applies in swapped orientation" (fun () ->
        let verdict =
          Ref.decide ~identity ~distinctness schema
            (tup [ "B"; "Greek"; "Gyros" ])
            schema
            (tup [ "A"; "Indian"; "Mughalai" ])
        in
        Alcotest.(check bool) "" true
          (Checker.Match_result.equal verdict.result Checker.Match_result.No_match));
    case "undetermined without applicable rule" (fun () ->
        let verdict =
          Ref.decide ~identity ~distinctness schema
            (tup [ "A"; "Chinese"; "Hunan" ])
            schema
            (tup [ "B"; "Greek"; "Gyros" ])
        in
        Alcotest.(check bool) "" true
          (Checker.Match_result.equal verdict.result Checker.Match_result.Undetermined));
    case "inconsistent rules raise" (fun () ->
        (* An identity rule and a distinctness rule both firing. *)
        let bad_distinct =
          Rules.Distinctness.make ~name:"bad"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "name")
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right "name");
            ]
        in
        Alcotest.(check bool) "" true
          (match
             Ref.decide ~identity ~distinctness:[ bad_distinct ]
               schema
               (tup [ "A"; "Chinese"; "Hunan" ])
               schema
               (tup [ "A"; "Chinese"; "Hunan" ])
           with
          | _ -> false
          | exception Ref.Inconsistent _ -> true));
    case "partition is a partition" (fun () ->
        let r =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "B"; "Indian"; "Mughalai" ] ]
        in
        let s =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "C"; "Greek"; "Gyros" ] ]
        in
        let m, d, u = Ref.partition_naive ~identity ~distinctness r s in
        Alcotest.(check int) "total" 4
          (List.length m + List.length d + List.length u);
        Alcotest.(check int) "matched" 1 (List.length m);
        (* B(Mughalai) is provably distinct from both Chinese A and
           Greek C. *)
        Alcotest.(check int) "distinct" 2 (List.length d));
    case "no-equality rules fall back to nested loop" (fun () ->
        (* A pure-≠ distinctness rule has no blocking key; the negative
           table must still agree with the reference on it. *)
        let neq =
          Rules.Distinctness.make ~name:"different-cuisine"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "cuisine")
                R.Predicate.Ne
                (Rules.Atom.attr Rules.Atom.Right "cuisine");
            ]
        in
        Alcotest.(check bool) "blocking key is None" true
          (Rules.Distinctness.blocking_key neq = None);
        let r =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "B"; "Indian"; "Mughalai" ] ]
        in
        let s =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "C"; "Greek"; "Gyros" ] ]
        in
        Alcotest.(check bool) "" true
          (nmt_agrees_with_reference ~distinctness:[ neq ] r s));
    qtest ~count:20 "blocked partition equals naive on random instances"
      (restaurant_gen ())
      (fun inst ->
        (* Randomized extended relations (including NULL keys and
           homonyms) under the ILFD-induced distinctness rules: the
           negative table lists the reference's not-matching pairs,
           in order. *)
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        nmt_agrees_with_reference
          ~distinctness:(E.Negative.distinctness_rules_of_ilfds inst.ilfds)
          o.r_extended o.s_extended);
    case "extra identity rules match (paper's r1 shape)" (fun () ->
        (* A one-Chinese-restaurant-per-database world: cuisine equality
           alone identifies. *)
        let r =
          relation [ "name"; "cuisine" ] [ [ "name" ] ]
            [ [ "WokA"; "Chinese" ] ]
        in
        let s =
          relation [ "name"; "cuisine" ] [ [ "name" ] ]
            [ [ "WokB"; "Chinese" ] ]
        in
        let r1 =
          Rules.Identity.make ~name:"r1"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "cuisine")
                R.Predicate.Eq
                (Rules.Atom.const (v "Chinese"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Right "cuisine")
                R.Predicate.Eq
                (Rules.Atom.const (v "Chinese"));
            ]
        in
        let m, _, _ = Ref.partition_naive ~identity:[ r1 ] ~distinctness:[] r s in
        Alcotest.(check int) "" 1 (List.length m));
  ]

(* ---- Matching_table ---- *)

let ktup names vals =
  R.Tuple.make (R.Schema.of_names names) (List.map v vals)

let entry r s =
  {
    E.Matching_table.r_key = ktup [ "rk" ] [ r ];
    s_key = ktup [ "sk" ] [ s ];
  }

(* Cells a coded table must keep apart or together exactly as the
   tuple-based one does: NULL, [Int 1] beside [Float 1.], [0.] beside
   [-0.], [nan], and strings holding commas and quotes. *)
let mt_cell_gen =
  QCheck2.Gen.oneofl
    [ V.Null; vi 1; V.float 1.; V.float 0.; V.float (-0.); V.float Float.nan;
      v "x"; v "a,b"; v {|say "hi"|}; v {|"|} ]

let mt_entry_gen =
  QCheck2.Gen.(
    map2
      (fun (a, b) c ->
        {
          E.Matching_table.r_key =
            R.Tuple.make (R.Schema.of_names [ "a"; "b" ]) [ a; b ];
          s_key = R.Tuple.make (R.Schema.of_names [ "c" ]) [ c ];
        })
      (pair mt_cell_gen mt_cell_gen) mt_cell_gen)

(* The same value, bit for bit: [-0.] is not [0.] here. *)
let same_value a b =
  match (a, b) with
  | V.Float x, V.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V.Float _, _ | _, V.Float _ -> false
  | _ -> V.equal a b

let same_entries =
  let same_key a b =
    List.equal same_value (R.Tuple.values a) (R.Tuple.values b)
  in
  List.equal (fun (a : E.Matching_table.entry) (b : E.Matching_table.entry) ->
      same_key a.r_key b.r_key && same_key a.s_key b.s_key)

(* The coded table against [Checker.Reference]'s tuple-based one, built
   from the same entries: what each function answers, in order. *)
let coded_table_agrees (entries, others, extra) =
  let make = E.Matching_table.make ~r_key_attrs:[ "a"; "b" ] ~s_key_attrs:[ "c" ]
  and ref_make =
    Ref.Matching_table.make ~r_key_attrs:[ "a"; "b" ] ~s_key_attrs:[ "c" ]
  in
  let mt = make entries and rt = ref_make entries in
  let nmt = make others and nrt = ref_make others in
  let never =
    { extra with
      E.Matching_table.s_key =
        R.Tuple.make (R.Schema.of_names [ "c" ])
          [ v "a value no table holds" ];
    }
  in
  let printed vs =
    List.map (Format.asprintf "%a" E.Matching_table.pp_violation) vs
  in
  let rows rel = R.Relation.tuples rel in
  let mt' = E.Matching_table.add mt extra
  and rt' = Ref.Matching_table.add rt extra in
  same_entries (E.Matching_table.entries mt) (Ref.Matching_table.entries rt)
  && E.Matching_table.cardinality mt = Ref.Matching_table.cardinality rt
  && List.for_all
       (fun e -> E.Matching_table.mem mt e = Ref.Matching_table.mem rt e)
       (never :: extra :: entries @ others)
  && same_entries
       (E.Matching_table.entries mt')
       (Ref.Matching_table.entries rt')
  && E.Matching_table.cardinality mt' = Ref.Matching_table.cardinality rt'
  && printed (E.Matching_table.uniqueness_violations mt)
     = printed (Ref.Matching_table.uniqueness_violations rt)
  && E.Matching_table.consistent mt nmt = Ref.Matching_table.consistent rt nrt
  && E.Matching_table.consistent nmt mt = Ref.Matching_table.consistent nrt rt
  && List.equal R.Tuple.equal
       (rows (E.Matching_table.to_relation mt))
       (rows (Ref.Matching_table.to_relation rt))
  && R.Pretty.render (E.Matching_table.to_relation mt)
     = R.Pretty.render (Ref.Matching_table.to_relation rt)

let matching_table_tests =
  [
    case "duplicates collapse" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "1" "a"; entry "2" "b" ]
        in
        Alcotest.(check int) "" 2 (E.Matching_table.cardinality mt));
    case "add is idempotent" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ] []
        in
        let mt = E.Matching_table.add mt (entry "1" "a") in
        let mt = E.Matching_table.add mt (entry "1" "a") in
        Alcotest.(check int) "" 1 (E.Matching_table.cardinality mt));
    case "uniqueness violations on both sides" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "1" "b"; entry "2" "b" ]
        in
        let vs = E.Matching_table.uniqueness_violations mt in
        Alcotest.(check int) "one per side" 2 (List.length vs);
        Alcotest.(check bool) "" false (E.Matching_table.satisfies_uniqueness mt));
    case "consistency constraint" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a" ]
        in
        let nmt_ok =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "b" ]
        in
        let nmt_bad =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a" ]
        in
        Alcotest.(check bool) "" true (E.Matching_table.consistent mt nmt_ok);
        Alcotest.(check bool) "" false (E.Matching_table.consistent mt nmt_bad));
    case "to_relation prefixes and sorts" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "2" "b"; entry "1" "a" ]
        in
        let rel = E.Matching_table.to_relation mt in
        Alcotest.(check (list string)) "" [ "r_rk"; "s_sk" ]
          (R.Schema.names (R.Relation.schema rel));
        match R.Relation.tuples rel with
        | [ first; _ ] ->
            Alcotest.(check string) "sorted" "1"
              (V.to_string (R.Tuple.nth first 0))
        | _ -> Alcotest.fail "two rows expected");
    qtest ~count:1000 "the coded table = the tuple-based reference"
      QCheck2.Gen.(
        triple
          (list_size (0 -- 15) mt_entry_gen)
          (list_size (0 -- 6) mt_entry_gen)
          mt_entry_gen)
      coded_table_agrees;
    case "an entry of the wrong arity raises" (fun () ->
        let wide =
          { E.Matching_table.r_key = ktup [ "rk"; "x" ] [ "1"; "2" ];
            s_key = ktup [ "sk" ] [ "a" ] }
        in
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ] []
        in
        Alcotest.check_raises "make"
          (R.Tuple.Arity_mismatch { expected = 1; got = 2 })
          (fun () ->
            ignore
              (E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
                 [ entry "1" "a"; wide ]));
        Alcotest.check_raises "add"
          (R.Tuple.Arity_mismatch { expected = 1; got = 2 })
          (fun () -> ignore (E.Matching_table.add mt wide));
        Alcotest.(check bool) "mem" false (E.Matching_table.mem mt wide));
  ]

(* ---- Identify on the paper's tables ---- *)

let identify_tests =
  [
    case "pairs agree with matching table" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" (List.length o.pairs)
          (E.Matching_table.cardinality o.matching_table));
    case "Example 2 / Table 3: the TwinCities pair" (fun () ->
        let o =
          E.Identify.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
            [ PD.example2_ilfd ]
        in
        Alcotest.(check int) "" 1
          (E.Matching_table.cardinality o.matching_table);
        match E.Matching_table.entries o.matching_table with
        | [ e ] ->
            Alcotest.(check string) "r name" "TwinCities"
              (V.to_string (R.Tuple.nth e.r_key 0));
            Alcotest.(check string) "r cuisine" "Indian"
              (V.to_string (R.Tuple.nth e.r_key 1))
        | _ -> Alcotest.fail "one entry");
    case "Example 3 / Table 7: three pairs" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" 3
          (E.Matching_table.cardinality o.matching_table);
        Alcotest.(check bool) "verified" true (E.Identify.is_verified o);
        (* Two R tuples keep a NULL speciality (no ILFD derives it for
           TwinCities/Indian or VillageWok/Chinese), so they are excluded
           from K_Ext matching; every S cuisine derives, so S has no
           NULL-key tuples. The other three R tuples all match:
           |MT| = |R| − |unmatched_r|. *)
        Alcotest.(check int) "NULL-key R tuples" 2
          (List.length o.unmatched_r);
        Alcotest.(check int) "NULL-key S tuples" 0
          (List.length o.unmatched_s));
    case "Table 6: extended relations carry derived values" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let rs = R.Relation.schema o.r_extended in
        let row name cuisine =
          Option.get
            (R.Relation.find_opt
               (fun t ->
                 get rs t "name" = name && get rs t "cuisine" = cuisine)
               o.r_extended)
        in
        Alcotest.(check string) "TwinCities Chinese -> Hunan" "Hunan"
          (get rs (row "TwinCities" "Chinese") "speciality");
        Alcotest.(check string) "It'sGreek -> Gyros via chain" "Gyros"
          (get rs (row "It'sGreek" "Greek") "speciality");
        Alcotest.(check string) "TwinCities Indian stays null" "null"
          (get rs (row "TwinCities" "Indian") "speciality");
        let ss = R.Relation.schema o.s_extended in
        Alcotest.(check bool) "every S cuisine derived" true
          (R.Relation.for_all
             (fun t -> not (V.is_null (R.Tuple.get ss t "cuisine")))
             o.s_extended));
    case "no ILFDs: nothing matches (missing key attrs stay null)" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key []
        in
        Alcotest.(check int) "" 0
          (E.Matching_table.cardinality o.matching_table);
        (* With nothing derivable, every tuple misses an extended-key
           attribute, and the outcome accounts for all of them. *)
        Alcotest.(check int) "all R tuples NULL-key"
          (R.Relation.cardinality PD.table5_r)
          (List.length o.unmatched_r);
        Alcotest.(check int) "all S tuples NULL-key"
          (R.Relation.cardinality PD.table5_s)
          (List.length o.unmatched_s));
    case "name-only extended key is unsound on Table 5" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s
            ~key:(E.Extended_key.make [ "name" ])
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" false (E.Identify.is_verified o);
        Alcotest.(check bool) "" (true)
          (List.length o.violations > 0));
    case "empty relations yield empty table" (fun () ->
        let empty_r =
          R.Relation.empty (R.Schema.of_names [ "name"; "cuisine" ]) ()
        in
        let empty_s =
          R.Relation.empty (R.Schema.of_names [ "name"; "speciality" ]) ()
        in
        let o =
          E.Identify.run ~r:empty_r ~s:empty_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" 0
          (E.Matching_table.cardinality o.matching_table));
    case "extension_schema appends missing key attrs in order" (fun () ->
        let s = E.Identify.extension_schema PD.table5_r PD.example3_key in
        Alcotest.(check (list string)) ""
          [ "name"; "cuisine"; "street"; "speciality" ]
          (R.Schema.names s));
  ]

(* ---- Negative ---- *)

(* ---- the K_Ext join against a nested loop ---- *)

(* K_Ext cells: NULLs, repeated strings, ints and floats equal as
   numbers, numbers above 2^53, where an int may have no float equal to
   it, and the ends of the int range. *)
let join_cell_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, return V.Null);
        (3, map V.string (oneofl [ "a"; "b" ]));
        (3, map V.int (0 -- 2));
        (3, map (fun i -> V.float (float_of_int i)) (0 -- 2));
        ( 1,
          oneofl
            [
              V.int (1 lsl 53);
              V.int ((1 lsl 53) + 1);
              V.float 9007199254740992.;
              V.float 9007199254740994.;
            ] );
        ( 1,
          oneofl
            [ V.int max_int; V.int min_int; V.float 0x1p62; V.float (-0x1p62) ]
        );
      ])

let join_side_gen =
  QCheck2.Gen.(list_size (0 -- 20) (pair join_cell_gen join_cell_gen))

(* Every (r, s) pair, in row-major order, whose K_Ext cells agree under
   [Tuple.agree] — the paper's join condition. *)
let nested_loop_join r s kext =
  let sr = R.Relation.schema r and ss = R.Relation.schema s in
  List.concat_map
    (fun tr ->
      List.filter_map
        (fun ts -> if R.Tuple.agree sr tr ss ts kext then Some (tr, ts) else None)
        (R.Relation.tuples s))
    (R.Relation.tuples r)

let join_side id rows =
  let schema = R.Schema.of_names [ id; "a"; "b" ] in
  R.Relation.of_tuples schema ~keys:[ [ id ] ]
    (List.mapi (fun i (a, b) -> R.Tuple.make schema [ V.int i; a; b ]) rows)

let join_agrees (r_rows, s_rows) =
  let r = join_side "rid" r_rows and s = join_side "sid" s_rows in
  let kext = [ "a"; "b" ] in
  let key = E.Extended_key.make kext in
  let streamed =
    List.rev
      (E.Identify.run_stream ~r ~s ~key ~init:[]
         ~f:(fun acc tr ts -> (tr, ts) :: acc)
         [])
  in
  let o = E.Identify.run ~r ~s ~key [] in
  let same = List.equal (fun (a, b) (c, d) -> R.Tuple.equal a c && R.Tuple.equal b d) in
  let expected = nested_loop_join r s kext in
  let null_keyed rel =
    List.filter
      (fun t -> V.is_null (R.Tuple.nth t 1) || V.is_null (R.Tuple.nth t 2))
      (R.Relation.tuples rel)
  in
  same streamed expected && same o.pairs expected
  && List.equal R.Tuple.equal o.unmatched_r (null_keyed r)
  && List.equal R.Tuple.equal o.unmatched_s (null_keyed s)

(* The index fold, each pair's rows decoded, is [run_stream]. *)
let fold_agrees (r_rows, s_rows) =
  let r = join_side "rid" r_rows and s = join_side "sid" s_rows in
  let key = E.Extended_key.make [ "a"; "b" ] in
  let r', s' = E.Identify.extend ~r ~s ~key [] in
  let indexed =
    E.Identify.fold_pairs ~key r' s' ~init:[] ~f:(fun acc i j ->
        (R.Relation.row r' i, R.Relation.row s' j) :: acc)
  and streamed =
    E.Identify.run_stream ~r ~s ~key ~init:[] ~f:(fun acc tr ts ->
        (tr, ts) :: acc)
      []
  in
  List.equal
    (fun (a, b) (c, d) -> R.Tuple.equal a c && R.Tuple.equal b d)
    indexed streamed

(* ---- the row-index tables against their tuple-based definitions ---- *)

(* The definitions the row-index tables replaced, over the decoded
   outcome: T_RS from the pairs plus every tuple no pair holds, sorted on
   its cells' text; the fused relation from the same rows, sorted on its
   values. *)
let reference_unmatched rel matched =
  List.filter
    (fun t -> not (List.exists (R.Tuple.equal t) matched))
    (R.Relation.tuples rel)

let reference_integrated ~key (o : E.Identify.outcome) =
  let rs = R.Relation.schema o.r_extended
  and ss = R.Relation.schema o.s_extended in
  let kext = E.Extended_key.attributes key in
  let rest schema =
    List.filter (fun a -> not (List.mem a kext)) (R.Schema.names schema)
  in
  let r_cols = kext @ rest rs and s_cols = kext @ rest ss in
  let schema =
    R.Schema.of_names
      (List.map (fun a -> "r_" ^ a) kext
      @ List.map (fun a -> "s_" ^ a) kext
      @ List.map (fun a -> "r_" ^ a) (rest rs)
      @ List.map (fun a -> "s_" ^ a) (rest ss))
  in
  let nk = List.length kext in
  let take l = List.filteri (fun i _ -> i < nk) l
  and drop l = List.filteri (fun i _ -> i >= nk) l in
  let row r_vals s_vals =
    R.Tuple.make schema (take r_vals @ take s_vals @ drop r_vals @ drop s_vals)
  in
  let r_vals tr = R.Tuple.values (R.Tuple.project rs tr r_cols)
  and s_vals ts = R.Tuple.values (R.Tuple.project ss ts s_cols) in
  let nulls cols = List.map (fun _ -> V.Null) cols in
  let rows =
    List.map (fun (tr, ts) -> row (r_vals tr) (s_vals ts)) o.pairs
    @ List.map
        (fun tr -> row (r_vals tr) (nulls s_cols))
        (reference_unmatched o.r_extended (List.map fst o.pairs))
    @ List.map
        (fun ts -> row (nulls r_cols) (s_vals ts))
        (reference_unmatched o.s_extended (List.map snd o.pairs))
  in
  let text t = List.map V.to_string (R.Tuple.values t) in
  R.Relation.of_tuples schema
    (List.stable_sort (fun a b -> compare (text a) (text b)) rows)

let reference_fuse ~default (o : E.Identify.outcome) =
  let rs = R.Relation.schema o.r_extended
  and ss = R.Relation.schema o.s_extended in
  let names =
    R.Schema.names rs
    @ List.filter (fun a -> not (R.Schema.mem rs a)) (R.Schema.names ss)
  in
  let out = R.Schema.of_names names in
  let side schema t a =
    match t with
    | Some t -> Option.value (R.Tuple.get_opt schema t a) ~default:V.Null
    | None -> V.Null
  in
  let cell tr ts a =
    let l = side rs tr a and r = side ss ts a in
    if V.is_null l then r
    else if V.is_null r then l
    else if V.eq3 l r = V.True then l
    else
      match default with
      | E.Fusion.Prefer_left -> l
      | E.Fusion.Prefer_right -> r
      | _ ->
          raise (E.Fusion.Inconsistent { attribute = a; left = l; right = r })
  in
  let row tr ts = R.Tuple.make out (List.map (cell tr ts) names) in
  let rows =
    List.map (fun (tr, ts) -> row (Some tr) (Some ts)) o.pairs
    @ List.map
        (fun tr -> row (Some tr) None)
        (reference_unmatched o.r_extended (List.map fst o.pairs))
    @ List.map
        (fun ts -> row None (Some ts))
        (reference_unmatched o.s_extended (List.map snd o.pairs))
  in
  R.Algebra.sort_by names (R.Relation.of_tuples out rows)

(* Same schema, same rows in the same order, printed alike. *)
let same_table a b =
  R.Schema.equal (R.Relation.schema a) (R.Relation.schema b)
  && R.Pretty.render a = R.Pretty.render b
  && List.equal R.Tuple.equal (R.Relation.tuples a) (R.Relation.tuples b)

(* Sides with an extra shared attribute [c], so fused pairs can
   conflict; keyless sides may hold an all-NULL row, whose R-only and
   S-only rows of T_RS are the same row. *)
let table_side ?id rows =
  let names = Option.to_list id @ [ "a"; "b"; "c" ] in
  let schema = R.Schema.of_names names in
  R.Relation.of_tuples schema
    ~keys:(match id with Some id -> [ [ id ] ] | None -> [])
    (List.mapi
       (fun i (a, b, c) ->
         R.Tuple.make schema
           ((match id with Some _ -> [ V.int i ] | None -> []) @ [ a; b; c ]))
       rows)

let table_side_gen =
  QCheck2.Gen.(
    list_size (0 -- 12) (triple join_cell_gen join_cell_gen join_cell_gen))

let tables_agree (keyed, (r_rows, s_rows)) =
  let r = table_side ?id:(if keyed then Some "rid" else None) r_rows
  and s = table_side ?id:(if keyed then Some "sid" else None) s_rows in
  let key = E.Extended_key.make [ "a"; "b" ] in
  let res = E.Identify.matched ~r ~s ~key [] in
  let o = E.Identify.run ~r ~s ~key [] in
  let violations vs =
    List.map (Format.asprintf "%a" E.Matching_table.pp_violation) vs
  in
  let fused default =
    match E.Fusion.fuse ~default res with
    | t -> Ok (R.Pretty.render t)
    | exception E.Fusion.Inconsistent { attribute; _ } -> Error attribute
  and reference_fused default =
    match reference_fuse ~default o with
    | t -> Ok (R.Pretty.render t)
    | exception E.Fusion.Inconsistent { attribute; _ } -> Error attribute
  in
  let mt = E.Identify.matching_table res
  and reference =
    let key rel t =
      R.Tuple.project (R.Relation.schema rel) t (R.Relation.primary_key rel)
    in
    Ref.Matching_table.make ~r_key_attrs:(R.Relation.primary_key r)
      ~s_key_attrs:(R.Relation.primary_key s)
      (List.map
         (fun (tr, ts) ->
           { E.Matching_table.r_key = key o.r_extended tr;
             s_key = key o.s_extended ts })
         o.pairs)
  in
  same_table (E.Matching_table.to_relation mt)
    (Ref.Matching_table.to_relation reference)
  && violations (E.Matching_table.uniqueness_violations mt)
     = violations (Ref.Matching_table.uniqueness_violations reference)
  && same_table (E.Integrate.integrated_table res)
       (reference_integrated ~key o)
  && List.equal R.Tuple.equal (E.Integrate.unmatched_r res)
       (reference_unmatched o.r_extended (List.map fst o.pairs))
  && List.for_all
       (fun default -> fused default = reference_fused default)
       E.Fusion.[ Prefer_left; Prefer_right; Prefer_non_null ]

let join_tests =
  [
    qtest ~count:1000 "the K_Ext join = a nested-loop Tuple.agree join"
      QCheck2.Gen.(pair join_side_gen join_side_gen)
      join_agrees;
    case "1 and 1.0 match on K_Ext" (fun () ->
        let r = join_side "rid" [ (vi 1, v "x") ]
        and s = join_side "sid" [ (V.float 1., v "x") ] in
        let o = E.Identify.run ~r ~s ~key:(E.Extended_key.make [ "a"; "b" ]) [] in
        Alcotest.(check int) "one pair" 1 (List.length o.pairs));
    qtest ~count:1000 "the index fold = run_stream, pair for pair"
      QCheck2.Gen.(pair join_side_gen join_side_gen)
      fold_agrees;
    qtest ~count:500
      "the row-index tables = their tuple-based definitions, in order"
      QCheck2.Gen.(pair bool (pair table_side_gen table_side_gen))
      tables_agree;
    case "an all-NULL row on both sides is one row of T_RS" (fun () ->
        let nulls = [ (V.Null, V.Null, V.Null) ] in
        let res =
          E.Identify.matched ~r:(table_side nulls) ~s:(table_side nulls)
            ~key:(E.Extended_key.make [ "a"; "b" ]) []
        in
        Alcotest.(check int) "" 1
          (R.Relation.cardinality (E.Integrate.integrated_table res)));
  ]

let negative_tests =
  [
    case "Table 4: Example 2's provably-distinct pair" (fun () ->
        (* (TwinCities, Chinese) in R vs (TwinCities, Mughalai) in S:
           Mughalai implies Indian, and Chinese ≠ Indian. *)
        let nmt =
          E.Negative.of_ilfds ~r:PD.table2_r ~s:PD.table2_s
            [ PD.example2_ilfd ]
        in
        Alcotest.(check int) "" 1 (E.Matching_table.cardinality nmt);
        match E.Matching_table.entries nmt with
        | [ e ] ->
            Alcotest.(check string) "" "Chinese"
              (V.to_string (R.Tuple.nth e.r_key 1))
        | _ -> Alcotest.fail "one entry");
    case "MT and NMT are consistent on Example 3" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let nmt =
          E.Negative.of_ilfds ~r:o.r_extended ~s:o.s_extended PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" true
          (E.Matching_table.consistent o.matching_table nmt));
    case "prop-1 rules from ilfds skip empty antecedents" (fun () ->
        let rules =
          E.Negative.distinctness_rules_of_ilfds
            [ Ilfd.make [] [ Ilfd.condition "a" (v "x") ] ]
        in
        Alcotest.(check int) "" 0 (List.length rules));
  ]

(* ---- Integrate ---- *)

let integrate_tests =
  [
    case "row count = matches + unmatched both sides" (fun () ->
        let o =
          E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table o in
        (* 3 merged + 2 R-only + 1 S-only = 6 rows, as in the session. *)
        Alcotest.(check int) "" 6 (R.Relation.cardinality t);
        Alcotest.(check int) "unmatched R" 2
          (List.length (E.Integrate.unmatched_r o));
        Alcotest.(check int) "unmatched S" 1
          (List.length (E.Integrate.unmatched_s o)));
    case "column layout: kext blocks first" (fun () ->
        let o =
          E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table o in
        Alcotest.(check (list string)) ""
          [ "r_name"; "r_cuisine"; "r_speciality"; "s_name"; "s_cuisine";
            "s_speciality"; "r_street"; "s_county" ]
          (R.Schema.names (R.Relation.schema t)));
    case "merged rows agree on extended key" (fun () ->
        let o =
          E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table o in
        let schema = R.Relation.schema t in
        R.Relation.iter
          (fun row ->
            let merged =
              (not (V.is_null (R.Tuple.get schema row "r_name")))
              && not (V.is_null (R.Tuple.get schema row "s_name"))
            in
            if merged then
              List.iter
                (fun a ->
                  Alcotest.(check string)
                    a
                    (get schema row ("r_" ^ a))
                    (get schema row ("s_" ^ a)))
                (E.Extended_key.attributes PD.example3_key))
          t);
    case "possibly_same respects non-null conflicts" (fun () ->
        let o =
          E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table o in
        let schema = R.Relation.schema t in
        let rows = R.Relation.tuples t in
        let sichuan =
          List.find (fun r -> get schema r "s_speciality" = "Sichuan") rows
        in
        let twincities_indian =
          List.find
            (fun r ->
              get schema r "r_name" = "TwinCities"
              && get schema r "r_cuisine" = "Indian")
            rows
        in
        let anjuman =
          List.find (fun r -> get schema r "r_name" = "Anjuman") rows
        in
        Alcotest.(check bool) "row compatible with itself" true
          (E.Integrate.possibly_same ~key:PD.example3_key schema sichuan
             sichuan);
        Alcotest.(check bool) "TwinCities-Indian vs Sichuan: cuisines clash"
          false
          (E.Integrate.possibly_same ~key:PD.example3_key schema
             twincities_indian sichuan);
        Alcotest.(check bool) "Anjuman/Sichuan conflict" false
          (E.Integrate.possibly_same ~key:PD.example3_key schema anjuman
             sichuan));
  ]

(* ---- Monotonic (Figure 3) ---- *)

let monotonic_tests =
  [
    case "adding ILFDs is monotone on Example 3" (fun () ->
        let state =
          E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key ()
        in
        let rec feed state previous = function
          | [] -> ()
          | ilfd :: rest ->
              let state = E.Monotonic.add_ilfd state ilfd in
              let current = E.Monotonic.snapshot state in
              Alcotest.(check bool) "monotone" true
                (E.Monotonic.monotone_step previous current);
              feed state current rest
        in
        let initial =
          E.Monotonic.snapshot
            (E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key ())
        in
        feed state initial PD.ilfds_i1_i8);
    case "snapshot partition sums to total" (fun () ->
        let state =
          E.Monotonic.add_ilfds
            (E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key ())
            PD.ilfds_i1_i8
        in
        let snap = E.Monotonic.snapshot state in
        Alcotest.(check int) "" snap.total_pairs
          (E.Matching_table.cardinality snap.matched
          + E.Matching_table.cardinality snap.not_matched
          + snap.undetermined_count);
        Alcotest.(check int) "20 pairs" 20 snap.total_pairs;
        Alcotest.(check int) "3 matched" 3
          (E.Matching_table.cardinality snap.matched));
    qtest ~count:8 "any ILFD prefix chain is monotone (random instances)"
      (restaurant_gen ~n_entities:12 ~null_street_rate:0.0 ())
      (fun inst ->
        let state =
          E.Monotonic.create ~r:inst.r ~s:inst.s ~key:inst.key ()
        in
        let rec monotone state previous = function
          | [] -> true
          | ilfd :: rest ->
              let state = E.Monotonic.add_ilfd state ilfd in
              let snap = E.Monotonic.snapshot state in
              E.Monotonic.monotone_step previous snap
              && monotone state snap rest
        in
        (* A prefix of the rule set, in generation order. *)
        let prefix =
          List.filteri (fun i _ -> i mod 2 = 0) inst.ilfds
        in
        monotone state (E.Monotonic.snapshot state) prefix);
    case "user distinctness rules join the negative side" (fun () ->
        let rule =
          Rules.Distinctness.make ~name:"never"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "name")
                R.Predicate.Eq
                (Rules.Atom.const (v "VillageWok"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Right "name")
                R.Predicate.Ne
                (Rules.Atom.const (v "VillageWok"));
            ]
        in
        let state =
          E.Monotonic.add_distinctness
            (E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key ())
            rule
        in
        let snap = E.Monotonic.snapshot state in
        (* VillageWok in R vs all 4 S tuples (none named VillageWok). *)
        Alcotest.(check int) "" 4
          (E.Matching_table.cardinality snap.not_matched));
  ]

(* ---- Algebraic (Section 4.2 / Figure 4) ---- *)

let algebraic_tests =
  [
    case "agrees with engine on Example 2" (fun () ->
        let o =
          E.Identify.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
            [ PD.example2_ilfd ]
        in
        let plan =
          E.Algebraic.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
            [ PD.example2_ilfd ]
        in
        Alcotest.(check bool) "" true (E.Algebraic.agrees plan o));
    case "agrees with engine on Example 3 (needs saturation)" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let plan =
          E.Algebraic.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" true (E.Algebraic.agrees plan o));
    case "r_prime matches Table 6 contents" (fun () ->
        let plan =
          E.Algebraic.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let schema = R.Relation.schema plan.r_prime in
        let gyros =
          R.Relation.find_opt
            (fun t -> get schema t "name" = "It'sGreek")
            plan.r_prime
        in
        match gyros with
        | Some t ->
            Alcotest.(check string) "" "Gyros" (get schema t "speciality")
        | None -> Alcotest.fail "It'sGreek row missing");
    case "agrees on chain workloads (depth 3)" (fun () ->
        let inst =
          Workload.Chain.generate
            { Workload.Chain.default with n_entities = 12; depth = 3 }
        in
        let o =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let plan =
          E.Algebraic.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        Alcotest.(check bool) "" true (E.Algebraic.agrees plan o));
    qtest ~count:10 "agrees on random restaurant instances"
      (restaurant_gen ~n_entities:25 ~null_street_rate:0.0 ())
      (fun inst ->
        let o =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let plan =
          E.Algebraic.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        E.Algebraic.agrees plan o);
  ]

(* ---- Verify & Figure 2 ---- *)

let verify_tests =
  [
    case "check flags unsound tables" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "1" "b" ]
        in
        let report = E.Verify.check mt in
        Alcotest.(check bool) "" false
          (E.Verify.is_sound_wrt_constraints report));
    case "against_truth counts" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "2" "wrong" ]
        in
        let truth = [ entry "1" "a"; entry "3" "missed" ] in
        let c = E.Verify.against_truth ~truth mt in
        Alcotest.(check int) "tm" 1 c.true_matches;
        Alcotest.(check int) "fm" 1 c.false_matches;
        Alcotest.(check int) "miss" 1 c.missed_matches;
        Alcotest.(check bool) "" false (E.Verify.sound_wrt_truth c));
    case "Figure 2: identical attributes, different entities" (fun () ->
        (* Without a domain attribute, attribute-value equivalence
           declares r1 ≡ s1 — unsound w.r.t. the integrated world where
           they are different restaurants (different streets). *)
        let naive =
          Baselines.Key_equiv.run_on_attributes ~attrs:[ "name"; "cuisine" ]
            PD.figure2_r PD.figure2_s
        in
        Alcotest.(check int) "naive matches the pair" 1
          (E.Matching_table.cardinality naive);
        let truth = [] in
        let c = E.Verify.against_truth ~truth naive in
        Alcotest.(check bool) "soundness violated" false
          (E.Verify.sound_wrt_truth c);
        (* With the domain attribute the pair becomes distinguishable:
           a distinctness rule on the domains blocks the match. *)
        let r_tagged =
          E.Verify.add_domain_attribute "domain" (v "DB1") PD.figure2_r
        in
        let s_tagged =
          E.Verify.add_domain_attribute "domain" (v "DB2") PD.figure2_s
        in
        let domain_rule =
          Rules.Distinctness.make ~name:"different subsets"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "domain")
                R.Predicate.Eq
                (Rules.Atom.const (v "DB1"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Right "domain")
                R.Predicate.Eq
                (Rules.Atom.const (v "DB2"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "name")
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right "name");
            ]
        in
        let nmt = E.Negative.of_rules ~r:r_tagged ~s:s_tagged [ domain_rule ] in
        Alcotest.(check int) "pair now provably distinct" 1
          (E.Matching_table.cardinality nmt));
    case "add_domain_attribute widens schema" (fun () ->
        let tagged =
          E.Verify.add_domain_attribute "domain" (v "DB1") PD.figure2_r
        in
        Alcotest.(check bool) "" true
          (R.Schema.mem (R.Relation.schema tagged) "domain"));
  ]

let () =
  Alcotest.run "entity_id"
    [
      ("match-result", match_result_tests);
      ("extended-key", extended_key_tests);
      ("decision", decision_tests);
      ("matching-table", matching_table_tests);
      ("identify", identify_tests);
      ("join", join_tests);
      ("negative", negative_tests);
      ("integrate", integrate_tests);
      ("monotonic", monotonic_tests);
      ("algebraic", algebraic_tests);
      ("verify", verify_tests);
    ]
