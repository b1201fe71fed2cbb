(* Tests for the extension layer: aggregation, the incremental
   (federated-update) engine, and ILFD mining. *)

module R = Relational
module V = R.Value
module E = Entity_id
module PD = Workload.Paper_data
open Helpers

let case name f = Alcotest.test_case name `Quick f

(* ---- Aggregate ---- *)

let sales =
  R.Relation.create
    (R.Schema.of_names [ "region"; "rep"; "amount" ])
    [
      [ v "west"; v "ann"; vi 10 ];
      [ v "west"; v "bob"; vi 30 ];
      [ v "east"; v "cal"; vi 20 ];
      [ v "east"; v "cal"; vi 25 ];
      [ v "east"; v "dee"; V.Null ];
    ]

let aggregate_tests =
  [
    case "group_by count and sum" (fun () ->
        let out =
          R.Aggregate.group_by ~by:[ "region" ]
            [ ("n", R.Aggregate.Count); ("total", R.Aggregate.Sum "amount") ]
            sales
        in
        Alcotest.(check int) "groups" 2 (R.Relation.cardinality out);
        let schema = R.Relation.schema out in
        let east =
          Option.get
            (R.Relation.find_opt
               (fun t -> V.to_string (R.Tuple.get schema t "region") = "east")
               out)
        in
        Alcotest.(check string) "count east" "3"
          (V.to_string (R.Tuple.get schema east "n"));
        Alcotest.(check string) "sum east skips null" "45"
          (V.to_string (R.Tuple.get schema east "total")));
    case "count_distinct and min/max" (fun () ->
        let out =
          R.Aggregate.group_by ~by:[ "region" ]
            [
              ("reps", R.Aggregate.Count_distinct "rep");
              ("lo", R.Aggregate.Min "amount");
              ("hi", R.Aggregate.Max "amount");
            ]
            sales
        in
        let schema = R.Relation.schema out in
        let east =
          Option.get
            (R.Relation.find_opt
               (fun t -> V.to_string (R.Tuple.get schema t "region") = "east")
               out)
        in
        Alcotest.(check string) "distinct reps" "2"
          (V.to_string (R.Tuple.get schema east "reps"));
        Alcotest.(check string) "min" "20"
          (V.to_string (R.Tuple.get schema east "lo"));
        Alcotest.(check string) "max" "25"
          (V.to_string (R.Tuple.get schema east "hi")));
    case "empty by-list aggregates whole relation" (fun () ->
        let out =
          R.Aggregate.group_by ~by:[] [ ("n", R.Aggregate.Count) ] sales
        in
        Alcotest.(check int) "" 1 (R.Relation.cardinality out));
    check_raises_any "sum over strings rejected" (fun () ->
        R.Aggregate.group_by ~by:[] [ ("s", R.Aggregate.Sum "rep") ] sales);
    case "distinct_values sorted, null-free" (fun () ->
        Alcotest.(check (list string)) "" [ "10"; "20"; "25"; "30" ]
          (List.map V.to_string (R.Aggregate.distinct_values sales "amount")));
  ]

(* ---- Incremental ---- *)

(* K_Ext cells on every edge of the match: NULL, [Int 1] with
   [Float 1.], 2^53 and 2^53 + 1 against [2^53.], [0.] with [-0.],
   [nan], and strings holding a comma and a quote. *)
let kext_cell_gen =
  QCheck2.Gen.oneofl
    [ V.Null; vi 1; V.float 1.; vi (1 lsl 53); vi ((1 lsl 53) + 1);
      V.float (2. ** 53.); V.float 0.; V.float (-0.); V.float Float.nan;
      v "a,b"; v {|say "hi"|} ]

(* A K_Ext of one attribute or two, and inserts on either side, ids
   from a small pool so that exact duplicates and key violations are
   common. *)
let interleaved_gen =
  QCheck2.Gen.(
    let* width = int_range 1 2 in
    let* inserts =
      list_size (0 -- 40)
        (triple bool (int_bound 5) (list_repeat width kext_cell_gen))
    in
    return (width, inserts))

let entry_strings (e : E.Matching_table.entry) =
  (R.Tuple.to_string e.r_key, R.Tuple.to_string e.s_key)

(* A violation as its key and sorted partners: the batch lists them in
   row-major order, the state in derivation order. *)
let violation_strings = function
  | E.Matching_table.R_tuple_matched_twice { r_key; s_keys } ->
      ("r", R.Tuple.to_string r_key, List.sort compare (List.map R.Tuple.to_string s_keys))
  | S_tuple_matched_twice { s_key; r_keys } ->
      ("s", R.Tuple.to_string s_key, List.sort compare (List.map R.Tuple.to_string r_keys))

(* Each insert against a reference that keeps each side's rows in a
   list: it is kept unless it is an exact duplicate or breaks the key,
   and its entries are the other side's rows it agrees with on K_Ext
   ([Tuple.agree]), in their insertion order. At the end the state is
   the batch run on the rows kept. *)
let interleaved_agrees (width, inserts) =
  let attrs = List.filteri (fun i _ -> i < width) [ "a"; "b" ] in
  let r_schema = R.Schema.of_names ("id" :: attrs)
  and s_schema = R.Schema.of_names ("sid" :: attrs) in
  let key = E.Extended_key.make attrs in
  let t =
    E.Incremental.create
      ~r:(R.Relation.empty r_schema ~keys:[ [ "id" ] ] ())
      ~s:(R.Relation.empty s_schema ~keys:[ [ "sid" ] ] ())
      ~key []
  in
  let kept_r = ref [] and kept_s = ref [] in
  let step ok (on_r, id, cells) =
    let schema, other_schema, mine, theirs, insert =
      if on_r then (r_schema, s_schema, kept_r, kept_s, E.Incremental.insert_r)
      else (s_schema, r_schema, kept_s, kept_r, E.Incremental.insert_s)
    in
    let tuple = R.Tuple.make schema (vi id :: cells) in
    let key_of schema row = R.Tuple.project schema row [ List.hd (R.Schema.names schema) ] in
    let expected =
      if List.exists (R.Tuple.equal tuple) !mine then Some []
      else if List.exists (fun row -> V.equal (R.Tuple.nth row 0) (vi id)) !mine
      then None
      else begin
        mine := tuple :: !mine;
        Some
          (List.filter_map
             (fun row ->
               if R.Tuple.agree schema tuple other_schema row attrs then
                 let mine = key_of schema tuple and other = key_of other_schema row in
                 Some
                   (if on_r then
                      { E.Matching_table.r_key = mine; s_key = other }
                    else { r_key = other; s_key = mine })
               else None)
             (List.rev !theirs))
      end
    in
    let got =
      match insert t tuple with
      | entries -> Some entries
      | exception R.Relation.Key_violation _ -> None
    in
    ok
    && Option.equal
         (List.equal (fun a b -> entry_strings a = entry_strings b))
         expected got
  in
  let ok = List.fold_left step true inserts in
  let r = R.Relation.of_tuples r_schema ~keys:[ [ "id" ] ] (List.rev !kept_r)
  and s = R.Relation.of_tuples s_schema ~keys:[ [ "sid" ] ] (List.rev !kept_s) in
  let batch = E.Identify.run ~r ~s ~key [] in
  let sorted f l = List.sort compare (List.map f l) in
  ok
  && R.Relation.equal (E.Incremental.r t) r
  && R.Relation.equal (E.Incremental.s t) s
  && sorted entry_strings (E.Incremental.entries t)
     = sorted entry_strings (E.Matching_table.entries batch.matching_table)
  && List.equal R.Tuple.equal (E.Incremental.unmatched_r t) batch.unmatched_r
  && List.equal R.Tuple.equal (E.Incremental.unmatched_s t) batch.unmatched_s
  && sorted violation_strings (E.Incremental.violations t)
     = sorted violation_strings batch.violations

let incremental_tests =
  [
    case "initial state equals batch" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let batch =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" true
          (mt_entries_equal
             (E.Incremental.matching_table t)
             batch.matching_table));
    case "insertion creating a match reports it" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        (* An S tuple matching the so-far-unmatched TwinCities/Indian R
           tuple: its cuisine derives to Indian via I4. *)
        let s_tuple =
          R.Tuple.make
            (R.Relation.schema PD.table5_s)
            [ v "TwinCities"; v "Mughalai"; v "Dakota" ]
        in
        (* R(TwinCities, Indian) has NULL speciality; the match needs the
           R side too. Add the entity rule first. *)
        let t =
          E.Incremental.add_ilfd t
            (Ilfd.parse
               "name = TwinCities & street = Co.B3 -> speciality = Mughalai")
        in
        let created = E.Incremental.insert_s t s_tuple in
        Alcotest.(check int) "one new match" 1 (List.length created);
        Alcotest.(check int) "" 4
          (E.Matching_table.cardinality (E.Incremental.matching_table t)));
    case "insertion with underivable key attrs matches nothing" (fun () ->
        let telemetry = Telemetry.create () in
        let t =
          E.Incremental.create ~telemetry ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        (* Example 3 ships two R tuples whose speciality no ILFD reaches
           (the TwinCities Indian/Vietnamese rows) — the initial batch
           accounting must already show them. *)
        let before_r = List.length (E.Incremental.unmatched_r t) in
        Alcotest.(check int) "initial unmatched_r" 2 before_r;
        Alcotest.(check int) "initial unmatched_s" 0
          (List.length (E.Incremental.unmatched_s t));
        let r_tuple =
          R.Tuple.make
            (R.Relation.schema PD.table5_r)
            [ v "Mystery"; v "Fusion"; v "Nowhere.St." ]
        in
        let created = E.Incremental.insert_r t r_tuple in
        Alcotest.(check int) "" 0 (List.length created);
        Alcotest.(check int) "table unchanged" 3
          (E.Matching_table.cardinality (E.Incremental.matching_table t));
        (* No ILFD derives its speciality, so its K_Ext stays NULL: the
           tuple must surface in the unmatched accounting, not vanish. *)
        Alcotest.(check int) "one more unmatched R tuple" (before_r + 1)
          (List.length (E.Incremental.unmatched_r t));
        Alcotest.(check int) "unmatched_s untouched" 0
          (List.length (E.Incremental.unmatched_s t));
        Alcotest.(check int) "null_key counter" 1
          (Telemetry.counter telemetry "incremental.null_key");
        Alcotest.(check int) "inserts counter" 1
          (Telemetry.counter telemetry "incremental.inserts");
        Alcotest.(check int) "pairs_added counter" 0
          (Telemetry.counter telemetry "incremental.pairs_added"));
    check_raises_any "key violation surfaces on insert" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        (* (TwinCities, Chinese) already exists with that key. *)
        E.Incremental.insert_r t
          (R.Tuple.make
             (R.Relation.schema PD.table5_r)
             [ v "TwinCities"; v "Chinese"; v "Elsewhere" ]));
    case "add_ilfd is monotone" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key
            (List.filteri (fun i _ -> i < 4) PD.ilfds_i1_i8)
        in
        let before = E.Incremental.matching_table t in
        let t =
          List.fold_left E.Incremental.add_ilfd t
            (List.filteri (fun i _ -> i >= 4) PD.ilfds_i1_i8)
        in
        let after = E.Incremental.matching_table t in
        Alcotest.(check bool) "before subset of after" true
          (List.for_all
             (E.Matching_table.mem after)
             (E.Matching_table.entries before));
        Alcotest.(check int) "" 3 (E.Matching_table.cardinality after));
    qtest ~count:10 "random insert order equals batch"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        (* NULL streets leave some specialities underivable, so the
           NULL-key (unmatched) accounting is non-trivially exercised. *)
        let inst =
          Workload.Restaurant.generate
            {
              Workload.Restaurant.default with
              n_entities = 20;
              null_street_rate = 0.25;
              seed;
            }
        in
        (* Start empty, stream all tuples in, compare with batch. *)
        let empty_r =
          R.Relation.empty (R.Relation.schema inst.r)
            ~keys:(R.Relation.declared_keys inst.r) ()
        in
        let empty_s =
          R.Relation.empty (R.Relation.schema inst.s)
            ~keys:(R.Relation.declared_keys inst.s) ()
        in
        let t =
          E.Incremental.create ~r:empty_r ~s:empty_s ~key:inst.key inst.ilfds
        in
        R.Relation.iter
          (fun tuple -> ignore (E.Incremental.insert_r t tuple))
          inst.r;
        R.Relation.iter
          (fun tuple -> ignore (E.Incremental.insert_s t tuple))
          inst.s;
        let batch =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        (* The NULL-key accounting must agree tuple-for-tuple, not just
           the matches. *)
        mt_entries_equal
          (E.Incremental.matching_table t)
          batch.matching_table
        && E.Incremental.unmatched_r t = batch.unmatched_r
        && E.Incremental.unmatched_s t = batch.unmatched_s);
    qtest ~count:10 "exact duplicate inserts are no-ops"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let inst =
          Workload.Restaurant.generate
            {
              Workload.Restaurant.default with
              n_entities = 20;
              null_street_rate = 0.25;
              seed;
            }
        in
        let empty rel =
          R.Relation.empty (R.Relation.schema rel)
            ~keys:(R.Relation.declared_keys rel) ()
        in
        (* Every row goes in twice in a row, and every third once more
           after the other side is complete: a copy must neither probe
           for partners again nor join the unmatched accounting again,
           nor change anything else. *)
        let t =
          E.Incremental.create ~r:(empty inst.r) ~s:(empty inst.s)
            ~key:inst.key inst.ilfds
        in
        let size () =
          ( R.Relation.kept (E.Incremental.r_base t),
            R.Relation.kept (E.Incremental.s_base t),
            List.length (E.Incremental.entries t),
            List.length (E.Incremental.unmatched_r t),
            List.length (E.Incremental.unmatched_s t) )
        in
        let copy insert tuple =
          let before = size () in
          insert t tuple = [] && size () = before
        in
        let fold f tuples = List.fold_left (fun ok tuple -> f tuple && ok) true tuples in
        let stream insert tuples =
          fold (fun tuple -> ignore (insert t tuple); copy insert tuple) tuples
        in
        let again insert tuples =
          fold (copy insert) (List.filteri (fun i _ -> i mod 3 = 0) tuples)
        in
        let rows = R.Relation.tuples inst.r and srows = R.Relation.tuples inst.s in
        let ok1 = stream E.Incremental.insert_r rows in
        let ok2 = stream E.Incremental.insert_s srows in
        let ok3 = again E.Incremental.insert_r rows in
        let ok4 = again E.Incremental.insert_s srows in
        let batch =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let o = E.Incremental.outcome t in
        ok1 && ok2 && ok3 && ok4
        && mt_entries_equal o.matching_table batch.matching_table
        && List.length o.pairs = List.length batch.pairs
        && List.length (E.Incremental.entries t) = List.length batch.pairs
        && List.equal R.Tuple.equal
             (R.Relation.tuples o.r_extended)
             (R.Relation.tuples batch.r_extended)
        && List.equal R.Tuple.equal
             (R.Relation.tuples o.s_extended)
             (R.Relation.tuples batch.s_extended)
        && R.Relation.cardinality (E.Incremental.r t)
           = R.Relation.cardinality inst.r
        && E.Incremental.unmatched_r t = batch.unmatched_r
        && E.Incremental.unmatched_s t = batch.unmatched_s);
    case "outcome integrates like batch" (fun () ->
        let t =
          E.Incremental.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let o = E.Incremental.outcome t in
        let table =
          E.Integrate.integrated_table
            (E.Identify.collect ~key:PD.example3_key
               ~r_key:(R.Relation.primary_key PD.table5_r)
               ~s_key:(R.Relation.primary_key PD.table5_s)
               ~compiled:(Ilfd.Apply.compile PD.ilfds_i1_i8)
               o.r_extended o.s_extended)
        in
        Alcotest.(check int) "" 6 (R.Relation.cardinality table);
        Alcotest.(check bool) "the batch's table" true
          (R.Relation.equal table
             (E.Integrate.integrated_table
                (E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s
                   ~key:PD.example3_key PD.ilfds_i1_i8))));
    case "first-rule mode inserts through disagreeing rules" (fun () ->
        let t =
          E.Incremental.create
            ~r:(relation [ "name" ] [ [ "name" ] ] [])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ]
                  [ [ "alpha"; "first" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = first";
              Ilfd.parse "name = alpha -> cuisine = second";
            ]
        in
        let r_tuple =
          R.Tuple.make (R.Schema.of_names [ "name" ]) [ v "alpha" ]
        in
        (* Cut semantics: the first rule wins, deriving cuisine=first and
           matching the S tuple. *)
        let created = E.Incremental.insert_r t r_tuple in
        Alcotest.(check int) "" 1 (List.length created));
    check_raises_any "check-conflicts mode raises on a conflicting insert"
      (fun () ->
        (* Regression: this insert used to die on [assert false] instead
           of reporting the conflict. *)
        let t =
          E.Incremental.create ~mode:Ilfd.Apply.Check_conflicts
            ~r:(relation [ "name" ] [ [ "name" ] ] [])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ]
                  [ [ "alpha"; "first" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = first";
              Ilfd.parse "name = alpha -> cuisine = second";
            ]
        in
        let r_tuple =
          R.Tuple.make (R.Schema.of_names [ "name" ]) [ v "alpha" ]
        in
        ignore (E.Incremental.insert_r t r_tuple));
    case "check-conflicts mode accepts agreeing rules" (fun () ->
        let t =
          E.Incremental.create ~mode:Ilfd.Apply.Check_conflicts
            ~r:(relation [ "name" ] [ [ "name" ] ] [])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ]
                  [ [ "alpha"; "same" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = same";
              Ilfd.parse "name = alpha -> cuisine = same";
            ]
        in
        let r_tuple =
          R.Tuple.make (R.Schema.of_names [ "name" ]) [ v "alpha" ]
        in
        let created = E.Incremental.insert_r t r_tuple in
        Alcotest.(check int) "" 1 (List.length created));
    check_raises_any "check-conflicts mode survives add_ilfd" (fun () ->
        (* The mode must be preserved when the knowledge base grows: the
           recreate inside add_ilfd re-derives under Check_conflicts and
           hits the disagreement. *)
        let t =
          E.Incremental.create ~mode:Ilfd.Apply.Check_conflicts
            ~r:(relation [ "name" ] [ [ "name" ] ] [ [ "alpha" ] ])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ] [])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [ Ilfd.parse "name = alpha -> cuisine = first" ]
        in
        ignore
          (E.Incremental.add_ilfd t
             (Ilfd.parse "name = alpha -> cuisine = second")));
    case "outcome collapses rows derivation made equal, with no key"
      (fun () ->
        (* With no declared key, [a = x -> b = v] fills (x, NULL) into a
           copy of (x, v): the batch extension keeps one row, and so must
           the incremental outcome. *)
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a"; "b" ])
            [ [ R.Value.string "x"; R.Value.Null ];
              [ R.Value.string "x"; R.Value.string "v" ] ]
        in
        let s = relation [ "a"; "b" ] [] [ [ "x"; "v" ] ] in
        let key = E.Extended_key.make [ "a"; "b" ] in
        let ilfds = [ Ilfd.parse "a = x -> b = v" ] in
        let o =
          E.Incremental.outcome (E.Incremental.create ~r ~s ~key ilfds)
        in
        let batch = E.Identify.run ~r ~s ~key ilfds in
        Alcotest.(check int) "one row" 1 (R.Relation.cardinality o.r_extended);
        Alcotest.(check bool) "as batch" true
          (R.Relation.equal o.r_extended batch.r_extended));
    qtest ~count:1000
      "interleaved inserts = a nested-loop join, and end as batch"
      interleaved_gen interleaved_agrees;
    case "a rejected insert changes nothing" (fun () ->
        let t =
          E.Incremental.create ~mode:Ilfd.Apply.Check_conflicts
            ~r:(relation [ "name"; "cuisine" ] [ [ "name" ] ] [ [ "alpha"; "x" ] ])
            ~s:(relation [ "name"; "cuisine" ] [ [ "name" ] ] [ [ "alpha"; "x" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = beta -> cuisine = first";
              Ilfd.parse "name = beta -> cuisine = second";
            ]
        in
        let schema = R.Schema.of_names [ "name"; "cuisine" ] in
        let state () =
          ( R.Relation.kept (E.Incremental.r_base t),
            List.map
              (fun (e : E.Matching_table.entry) ->
                (R.Tuple.to_string e.r_key, R.Tuple.to_string e.s_key))
              (E.Incremental.entries t),
            List.map R.Tuple.to_string (E.Incremental.unmatched_r t) )
        in
        let answer tuple =
          match E.Incremental.insert_r t tuple with
          | _ -> "accepted"
          | exception R.Relation.Key_violation { key; _ } ->
              "key " ^ String.concat "," key
          | exception Ilfd.Apply.Conflict_found c -> "conflict " ^ c.attribute
          | exception R.Tuple.Arity_mismatch { got; _ } ->
              Printf.sprintf "arity %d" got
        in
        let rejected ~interns_nothing want tuple =
          let before = state () and interned = R.Intern.size () in
          Alcotest.(check string) "rejected" want (answer tuple);
          Alcotest.(check bool) "the state as it was" true (state () = before);
          if interns_nothing then
            Alcotest.(check int) "nothing interned" interned (R.Intern.size ());
          Alcotest.(check string) "the same answer again" want (answer tuple);
          Alcotest.(check bool) "still as it was" true (state () = before)
        in
        rejected ~interns_nothing:true "key name"
          (R.Tuple.make schema [ v "alpha"; v "a rejected insert: key" ]);
        rejected ~interns_nothing:true "key name"
          (R.Tuple.make schema [ V.Null; v "a rejected insert: NULL key" ]);
        rejected ~interns_nothing:false "conflict cuisine"
          (R.Tuple.make schema [ v "beta"; V.Null ]);
        rejected ~interns_nothing:false "arity 3"
          (R.Tuple.make
             (R.Schema.of_names [ "name"; "cuisine"; "street" ])
             [ v "gamma"; v "x"; v "Elm" ]);
        (* The state still takes inserts, and matches them. *)
        Alcotest.(check int) "a later insert matches" 1
          (List.length
             (E.Incremental.insert_s t (R.Tuple.make schema [ v "gamma"; v "y" ])
             @ E.Incremental.insert_r t (R.Tuple.make schema [ v "gamma"; v "y" ]))));
    case "a key cell decodes to the first spelling interned" (fun () ->
        (* [0.] and [-0.] are one value, with one storage code: whichever
           spelling this process interned first is the one every entry
           reads back, on both sides. *)
        let first = R.Intern.value (R.Intern.code (V.float (-0.))) in
        let t =
          E.Incremental.create
            ~r:(relation [ "id"; "k" ] [ [ "id" ] ] [])
            ~s:(relation [ "id"; "k" ] [ [ "id" ] ] [])
            ~key:(E.Extended_key.make [ "k" ])
            []
        in
        let schema = R.Schema.of_names [ "id"; "k" ] in
        ignore (E.Incremental.insert_r t (R.Tuple.make schema [ V.float 0.; V.float 0. ]));
        let sign = function
          | V.Float f -> Float.sign_bit f
          | _ -> Alcotest.fail "a float key"
        in
        match
          E.Incremental.insert_s t
            (R.Tuple.make schema [ V.float (-0.); V.float (-0.) ])
        with
        | [ e ] ->
            Alcotest.(check bool) "R's key" (sign first)
              (sign (R.Tuple.nth e.r_key 0));
            Alcotest.(check bool) "S's key" (sign first)
              (sign (R.Tuple.nth e.s_key 0))
        | _ -> Alcotest.fail "one match");
  ]

(* ---- Mine ---- *)

let mine_tests =
  [
    case "mines the exact speciality->cuisine map" (fun () ->
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 80; seed = 9 }
        in
        let mined =
          Ilfd.Mine.mine ~min_support:1 inst.world ~lhs:[ "speciality" ]
            ~rhs:"cuisine"
        in
        Alcotest.(check bool) "all exact" true
          (List.for_all (fun c -> c.Ilfd.Mine.confidence = 1.0) mined);
        (* Every mined rule is consistent with the hidden map. *)
        Alcotest.(check bool) "consistent with pool" true
          (List.for_all
             (fun (c : Ilfd.Mine.candidate) ->
               match Ilfd.antecedent c.ilfd, Ilfd.consequent c.ilfd with
               | [ a ], [ b ] ->
                   Array.exists
                     (fun (sp, cu) ->
                       V.equal a.value (v sp) && V.equal b.value (v cu))
                     Workload.Pools.speciality_cuisine
               | _ -> false)
             mined));
    case "min_support filters rare patterns" (fun () ->
        (* Relations are sets, so an id column keeps support > 1. *)
        let r =
          relation [ "id"; "a"; "b" ] []
            [ [ "r1"; "x"; "1" ]; [ "r2"; "x"; "1" ]; [ "r3"; "y"; "2" ] ]
        in
        let all = Ilfd.Mine.mine ~min_support:1 r ~lhs:[ "a" ] ~rhs:"b" in
        let frequent = Ilfd.Mine.mine ~min_support:2 r ~lhs:[ "a" ] ~rhs:"b" in
        Alcotest.(check int) "" 2 (List.length all);
        Alcotest.(check int) "" 1 (List.length frequent));
    case "confidence below 1 excluded by default" (fun () ->
        let r =
          relation [ "id"; "a"; "b" ] []
            [ [ "r1"; "x"; "1" ]; [ "r2"; "x"; "1" ]; [ "r3"; "x"; "2" ] ]
        in
        Alcotest.(check int) "" 0
          (List.length (Ilfd.Mine.mine r ~lhs:[ "a" ] ~rhs:"b"));
        match Ilfd.Mine.mine ~min_confidence:0.6 r ~lhs:[ "a" ] ~rhs:"b" with
        | [ c ] ->
            Alcotest.(check bool) "majority value" true
              (Float.abs (c.confidence -. (2.0 /. 3.0)) < 1e-9)
        | _ -> Alcotest.fail "one candidate expected");
    case "nulls are ignored" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a"; "b" ])
            [ [ v "x"; V.Null ]; [ v "x"; v "1" ]; [ V.Null; v "2" ] ]
        in
        match Ilfd.Mine.mine ~min_support:1 r ~lhs:[ "a" ] ~rhs:"b" with
        | [ c ] -> Alcotest.(check int) "" 1 c.support
        | _ -> Alcotest.fail "one candidate expected");
    case "multi-attribute antecedents" (fun () ->
        let r =
          relation [ "a"; "b"; "c" ] []
            [ [ "x"; "1"; "p" ]; [ "x"; "2"; "q" ]; [ "x"; "1"; "p" ] ]
        in
        let mined =
          Ilfd.Mine.mine ~min_support:1 r ~lhs:[ "a"; "b" ] ~rhs:"c"
        in
        Alcotest.(check int) "" 2 (List.length mined));
    case "mine_pairs covers the schema" (fun () ->
        let r = relation [ "a"; "b" ] [] [ [ "x"; "1" ]; [ "y"; "2" ] ] in
        let mined = Ilfd.Mine.mine_pairs ~min_support:1 r in
        (* a->b and b->a, one rule per distinct value on each side. *)
        Alcotest.(check int) "" 4 (List.length mined));
    case "validate against a second relation" (fun () ->
        let train = relation [ "a"; "b" ] [] [ [ "x"; "1" ] ] in
        let test_consistent = relation [ "a"; "b" ] [] [ [ "x"; "1" ] ] in
        let test_violating = relation [ "a"; "b" ] [] [ [ "x"; "2" ] ] in
        match Ilfd.Mine.mine ~min_support:1 train ~lhs:[ "a" ] ~rhs:"b" with
        | [ c ] ->
            Alcotest.(check bool) "" true
              (Ilfd.Mine.validate test_consistent c);
            Alcotest.(check bool) "" false
              (Ilfd.Mine.validate test_violating c)
        | _ -> Alcotest.fail "one candidate expected");
    case "identification with exactly-mined rules is sound" (fun () ->
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 60; seed = 17 }
        in
        let mined =
          Ilfd.Mine.exact
            (Ilfd.Mine.mine ~min_support:1 inst.world ~lhs:[ "speciality" ]
               ~rhs:"cuisine"
            @ Ilfd.Mine.mine ~min_support:1 inst.world
                ~lhs:[ "name"; "street" ] ~rhs:"speciality")
        in
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key mined in
        let m = Workload.Metrics.evaluate ~truth:inst.truth o.matching_table in
        Alcotest.(check (float 0.0001)) "precision" 1.0 m.precision);
  ]

(* ---- Align ---- *)

let align_tests =
  [
    case "rename resolves synonyms" (fun () ->
        let r = relation [ "rest_name" ] [ [ "rest_name" ] ] [ [ "X" ] ] in
        let out =
          E.Align.apply
            [ E.Align.Rename { from_attr = "rest_name"; to_attr = "name" } ]
            r
        in
        Alcotest.(check (list string)) "" [ "name" ]
          (R.Schema.names (R.Relation.schema out));
        Alcotest.(check (list (list string))) "key follows" [ [ "name" ] ]
          (R.Relation.keys out));
    case "map converts units, skips NULL" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "yen" ])
            [ [ vi 1000 ]; [ V.Null ] ]
        in
        let out =
          E.Align.apply
            [ E.Align.Map
                { from_attr = "yen"; to_attr = "usd";
                  f = E.Align.scale_float 0.007 } ]
            r
        in
        let values =
          List.map
            (fun t -> R.Tuple.nth t 0)
            (R.Relation.tuples out)
        in
        Alcotest.(check bool) "scaled" true
          (List.exists (fun x -> V.eq3 x (R.Value.float 7.0) = V.True) values);
        Alcotest.(check bool) "null kept" true
          (List.exists V.is_null values));
    case "combine merges split names and drops sources" (fun () ->
        let r =
          relation [ "last"; "first"; "age" ] []
            [ [ "Smith"; "Jo"; "44" ] ]
        in
        let out =
          E.Align.apply
            [ E.Align.Combine
                { from_attrs = [ "first"; "last" ]; to_attr = "name";
                  f = E.Align.concat_strings " " } ]
            r
        in
        Alcotest.(check (list string)) "" [ "age"; "name" ]
          (R.Schema.names (R.Relation.schema out));
        let t = List.hd (R.Relation.tuples out) in
        Alcotest.(check string) "" "Jo Smith"
          (V.to_string (R.Tuple.get (R.Relation.schema out) t "name")));
    case "combine invalidates keys over consumed attrs" (fun () ->
        let r =
          relation [ "last"; "first" ] [ [ "last"; "first" ] ]
            [ [ "Smith"; "Jo" ] ]
        in
        let out =
          E.Align.apply
            [ E.Align.Combine
                { from_attrs = [ "first"; "last" ]; to_attr = "name";
                  f = E.Align.concat_strings " " } ]
            r
        in
        Alcotest.(check (list (list string))) "" []
          (R.Relation.declared_keys out));
    case "drop removes an attribute" (fun () ->
        let r = relation [ "a"; "b" ] [] [ [ "1"; "2" ] ] in
        let out = E.Align.apply [ E.Align.Drop "b" ] r in
        Alcotest.(check (list string)) "" [ "a" ]
          (R.Schema.names (R.Relation.schema out)));
    check_raises_any "scale_float on strings rejected" (fun () ->
        E.Align.scale_float 2.0 (v "oops"));
    case "concat_strings of all NULL is NULL" (fun () ->
        Alcotest.(check bool) "" true
          (V.is_null (E.Align.concat_strings " " [ V.Null; V.Null ])));
  ]

(* ---- Fusion ---- *)

let fusion_outcome =
  E.Identify.matched ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
    PD.ilfds_i1_i8

let fusion_tests =
  [
    case "fuse yields one row per entity" (fun () ->
        let fused = E.Fusion.fuse fusion_outcome in
        (* 3 merged + 2 R-only + 1 S-only = 6 entities. *)
        Alcotest.(check int) "" 6 (R.Relation.cardinality fused);
        Alcotest.(check (list string)) "union schema"
          [ "name"; "cuisine"; "street"; "speciality"; "county" ]
          (R.Schema.names (R.Relation.schema fused)));
    case "merged rows carry both sides' attributes" (fun () ->
        let fused = E.Fusion.fuse fusion_outcome in
        let schema = R.Relation.schema fused in
        let anjuman =
          Option.get
            (R.Relation.find_opt
               (fun t -> V.to_string (R.Tuple.get schema t "name") = "Anjuman")
               fused)
        in
        Alcotest.(check string) "street from R" "LeSalleAve."
          (V.to_string (R.Tuple.get schema anjuman "street"));
        Alcotest.(check string) "county from S" "Mpls."
          (V.to_string (R.Tuple.get schema anjuman "county")));
    case "conflicts empty on the paper's data" (fun () ->
        Alcotest.(check int) "" 0
          (List.length (E.Fusion.conflicts fusion_outcome)));
    case "conflicting values raise under Prefer_non_null" (fun () ->
        let r = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "111" ] ] in
        let s = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "222" ] ] in
        let key = E.Extended_key.make [ "k" ] in
        let o = E.Identify.matched ~r ~s ~key [] in
        Alcotest.(check int) "one conflict" 1
          (List.length (E.Fusion.conflicts o));
        Alcotest.(check bool) "" true
          (match E.Fusion.fuse o with
          | _ -> false
          | exception E.Fusion.Inconsistent { attribute = "phone"; _ } -> true));
    case "policies pick sides" (fun () ->
        let r = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "111" ] ] in
        let s = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "222" ] ] in
        let key = E.Extended_key.make [ "k" ] in
        let o = E.Identify.matched ~r ~s ~key [] in
        let value_of fused =
          V.to_string
            (R.Tuple.get
               (R.Relation.schema fused)
               (List.hd (R.Relation.tuples fused))
               "phone")
        in
        Alcotest.(check string) "left" "111"
          (value_of (E.Fusion.fuse ~default:E.Fusion.Prefer_left o));
        Alcotest.(check string) "right" "222"
          (value_of (E.Fusion.fuse ~default:E.Fusion.Prefer_right o));
        Alcotest.(check string) "custom" "111/222"
          (value_of
             (E.Fusion.fuse
                ~overrides:
                  [ ("phone",
                     E.Fusion.Resolve
                       (fun a b ->
                         v (V.to_string a ^ "/" ^ V.to_string b))) ]
                o)));
    case "NULL never conflicts" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "k"; "phone" ])
            ~keys:[ [ "k" ] ]
            [ [ v "e1"; V.Null ] ]
        in
        let s = relation [ "k"; "phone" ] [ [ "k" ] ] [ [ "e1"; "222" ] ] in
        let key = E.Extended_key.make [ "k" ] in
        let o = E.Identify.matched ~r ~s ~key [] in
        let fused = E.Fusion.fuse o in
        Alcotest.(check string) "" "222"
          (V.to_string
             (R.Tuple.get
                (R.Relation.schema fused)
                (List.hd (R.Relation.tuples fused))
                "phone")));
  ]

(* ---- Cluster ---- *)

let cluster_tests =
  [
    case "two-database clustering equals pairwise identify" (fun () ->
        let result =
          E.Cluster.integrate ~key:PD.example3_key PD.ilfds_i1_i8
            [ ("r", PD.table5_r); ("s", PD.table5_s) ]
        in
        Alcotest.(check int) "3 clusters" 3 (List.length result.clusters);
        Alcotest.(check int) "no violations" 0
          (List.length result.violations);
        Alcotest.(check bool) "pairwise consistent" true
          (E.Cluster.pairwise_consistent ~key:PD.example3_key PD.ilfds_i1_i8
             [ ("r", PD.table5_r); ("s", PD.table5_s) ]
             result));
    case "three databases chain transitively" (fun () ->
        let mk rows =
          relation [ "k"; "x" ] [ [ "k" ] ] rows
        in
        let key = E.Extended_key.make [ "k" ] in
        let result =
          E.Cluster.integrate ~key []
            [ ("a", mk [ [ "e1"; "1" ] ]);
              ("b", mk [ [ "e1"; "2" ]; [ "e2"; "3" ] ]);
              ("c", mk [ [ "e1"; "4" ]; [ "e9"; "5" ] ]) ]
        in
        Alcotest.(check int) "one 3-way cluster, one 0-way" 1
          (List.length result.clusters);
        (match result.clusters with
        | [ c ] -> Alcotest.(check int) "3 members" 3 (List.length c.members)
        | _ -> Alcotest.fail "one cluster expected");
        Alcotest.(check int) "singletons" 2 (List.length result.singletons));
    case "incomplete extended key stays undetermined" (fun () ->
        let a = relation [ "k"; "x" ] [ [ "k" ] ] [ [ "e1"; "1" ] ] in
        let b = relation [ "k"; "y" ] [ [ "k" ] ] [ [ "e1"; "2" ] ] in
        let key = E.Extended_key.make [ "k"; "z" ] in
        let result = E.Cluster.integrate ~key [] [ ("a", a); ("b", b) ] in
        Alcotest.(check int) "" 0 (List.length result.clusters);
        Alcotest.(check int) "" 2 (List.length result.undetermined));
    case "generalised uniqueness violation detected" (fun () ->
        (* Two tuples of the same DB sharing the extended-key vector:
           the key {x} is not a key of db a. *)
        let a = relation [ "k"; "x" ] [ [ "k" ] ]
            [ [ "e1"; "same" ]; [ "e2"; "same" ] ] in
        let b = relation [ "j"; "x" ] [ [ "j" ] ] [ [ "f1"; "same" ] ] in
        let key = E.Extended_key.make [ "x" ] in
        let result = E.Cluster.integrate ~key [] [ ("a", a); ("b", b) ] in
        Alcotest.(check int) "" 1 (List.length result.violations));
    check_raises_any "duplicate db names rejected" (fun () ->
        E.Cluster.integrate ~key:PD.example3_key []
          [ ("x", PD.table5_r); ("x", PD.table5_s) ]);
    case "clusters use derived values" (fun () ->
        let result =
          E.Cluster.integrate ~key:PD.example3_key PD.ilfds_i1_i8
            [ ("r", PD.table5_r); ("s", PD.table5_s) ]
        in
        Alcotest.(check bool) "Gyros cluster exists" true
          (List.exists
             (fun (c : E.Cluster.cluster) ->
               List.exists
                 (fun kv -> V.eq3 kv (v "Gyros") = V.True)
                 c.key_values)
             result.clusters));
  ]

(* ---- Explain ---- *)

(* The explanations of a run's matching table, as the CLI makes them:
   with the family the run compiled. *)
let explain ?mode ~r ~s ~key ilfds =
  let res = E.Identify.matched ~r ~s ~key ilfds in
  E.Explain.matches ?mode ~r ~s ~key res.compiled
    (E.Identify.matching_table res)

(* The explanations as they were made before the run's family reached
   them: the rules compiled again, and each pair's rows found by a scan
   of R and S for its keys. *)
let explain_afresh ?mode ~r ~s ~key ilfds mt =
  let compiled = Ilfd.Apply.compile ilfds in
  let plan rel =
    Ilfd.Fixpoint.plan ~source:(R.Relation.schema rel)
      ~target:(E.Identify.extension_schema rel key) compiled
  in
  let r_plan = plan r and s_plan = plan s in
  let find rel k =
    R.Relation.find_opt (fun t -> R.Tuple.equal (R.Relation.key_of rel t) k) rel
  in
  List.filter_map
    (fun (e : E.Matching_table.entry) ->
      match (find r e.r_key, find s e.s_key) with
      | Some tr, Some ts ->
          Some (E.Explain.of_rows ?mode ~key ~r_plan ~s_plan e tr ts)
      | _ -> None)
    (E.Matching_table.entries mt)

(* Both ways of explaining one first-rule run, in both modes: the same
   rendered report, or the same conflict witness. *)
let explanations_agree ~r ~s ~key ilfds =
  let res = E.Identify.matched ~r ~s ~key ilfds in
  let mt = E.Identify.matching_table res in
  let outcome f =
    match f () with
    | es -> Ok (E.Explain.render es)
    | exception Ilfd.Apply.Conflict_found c ->
        Error (c.attribute, V.to_string c.first, V.to_string c.second)
  in
  List.for_all
    (fun mode ->
      outcome (fun () -> E.Explain.matches ~mode ~r ~s ~key res.compiled mt)
      = outcome (fun () -> explain_afresh ~mode ~r ~s ~key ilfds mt))
    Ilfd.Apply.[ First_rule; Check_conflicts ]

let explain_tests =
  [
    case "one explanation per matched pair" (fun () ->
        let es =
          explain ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" 3 (List.length es));
    case "It'sGreek explanation shows the I7+I8 chain" (fun () ->
        let es =
          explain ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let greek =
          List.find
            (fun (e : E.Explain.explanation) ->
              V.to_string (R.Tuple.nth e.entry.E.Matching_table.r_key 0)
              = "It'sGreek")
            es
        in
        let attrs =
          List.map
            (fun (d : Ilfd.Apply.derivation) -> d.attribute)
            greek.r_derivations
        in
        (* The chain derives the scratch county before speciality. *)
        Alcotest.(check bool) "county step" true (List.mem "county" attrs);
        Alcotest.(check bool) "speciality step" true
          (List.mem "speciality" attrs));
    case "agreed key values are reported" (fun () ->
        let es =
          explain ~r:PD.table2_r ~s:PD.table2_s
            ~key:PD.example2_key [ PD.example2_ilfd ]
        in
        match es with
        | [ e ] ->
            Alcotest.(check (list string)) ""
              [ "name=TwinCities"; "cuisine=Indian" ]
              (List.map
                 (fun (a, value) ->
                   Printf.sprintf "%s=%s" a (V.to_string value))
                 e.key_values)
        | _ -> Alcotest.fail "one explanation expected");
    case "every derivation step carries an Armstrong proof" (fun () ->
        let es =
          explain ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let r_schema = R.Relation.schema PD.table5_r in
        let s_schema = R.Relation.schema PD.table5_s in
        List.iter
          (fun (e : E.Explain.explanation) ->
            let tr =
              Option.get
                (R.Relation.find_opt
                   (fun t ->
                     R.Tuple.equal
                       (R.Tuple.project r_schema t [ "name"; "cuisine" ])
                       e.entry.E.Matching_table.r_key)
                   PD.table5_r)
            in
            let ts =
              Option.get
                (R.Relation.find_opt
                   (fun t ->
                     R.Tuple.equal
                       (R.Tuple.project s_schema t [ "name"; "speciality" ])
                       e.entry.s_key)
                   PD.table5_s)
            in
            List.iter
              (fun d ->
                Alcotest.(check bool) "r proof" true
                  (Option.is_some
                     (E.Explain.prove_derivation PD.ilfds_i1_i8 r_schema tr d)))
              e.r_derivations;
            List.iter
              (fun d ->
                Alcotest.(check bool) "s proof" true
                  (Option.is_some
                     (E.Explain.prove_derivation PD.ilfds_i1_i8 s_schema ts d)))
              e.s_derivations)
          es);
    case "check-conflicts explanation reports the witness" (fun () ->
        (* Regression: a conflicting instance used to kill the explainer
           with [assert false]; it must raise [Conflict_found] with the
           disagreeing derivations attached, like the pipeline itself. *)
        let explain mode =
          explain ?mode
            ~r:(relation [ "name" ] [ [ "name" ] ] [ [ "alpha" ] ])
            ~s:
              (relation
                 [ "name"; "cuisine" ]
                 [ [ "name" ] ]
                 [ [ "alpha"; "first" ] ])
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            [
              Ilfd.parse "name = alpha -> cuisine = first";
              Ilfd.parse "name = alpha -> cuisine = second";
            ]
        in
        (match explain (Some Ilfd.Apply.Check_conflicts) with
        | _ -> Alcotest.fail "Conflict_found expected"
        | exception Ilfd.Apply.Conflict_found c ->
            Alcotest.(check string) "attribute" "cuisine" c.attribute;
            Alcotest.(check string) "first" "first" (V.to_string c.first);
            Alcotest.(check string) "second" "second" (V.to_string c.second));
        (* First-rule (cut) semantics still explains the same instance. *)
        Alcotest.(check int) "first-rule explains" 1
          (List.length (explain None)));
    case "render mentions rules and values" (fun () ->
        let es =
          explain ~r:PD.table2_r ~s:PD.table2_s
            ~key:PD.example2_key [ PD.example2_ilfd ]
        in
        let out = E.Explain.render es in
        let contains needle =
          let nl = String.length needle and ol = String.length out in
          let rec scan i =
            i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
          in
          scan 0
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains needle))
          [ "TwinCities"; "cuisine=Indian"; "Mughalai" ]);
    case
      "the run's family explains as a fresh compile does, on the paper's data"
      (fun () ->
        Alcotest.(check bool) "Example 3" true
          (explanations_agree ~r:PD.table5_r ~s:PD.table5_s
             ~key:PD.example3_key PD.ilfds_i1_i8);
        Alcotest.(check bool) "Example 2" true
          (explanations_agree ~r:PD.table2_r ~s:PD.table2_s
             ~key:PD.example2_key [ PD.example2_ilfd ]);
        Alcotest.(check bool) "disagreeing rules" true
          (explanations_agree
             ~r:(relation [ "name" ] [ [ "name" ] ] [ [ "alpha" ] ])
             ~s:
               (relation [ "name"; "cuisine" ] [ [ "name" ] ]
                  [ [ "alpha"; "first" ] ])
             ~key:(E.Extended_key.make [ "name"; "cuisine" ])
             [
               Ilfd.parse "name = alpha -> cuisine = first";
               Ilfd.parse "name = alpha -> cuisine = second";
             ]));
    qtest ~count:100
      "the run's family explains as a fresh compile does, on generated scenarios"
      seed_gen
      (fun seed ->
        let sc = Checker.Scenario.generate ~seed in
        explanations_agree ~r:sc.r ~s:sc.s ~key:sc.key sc.ilfds);
  ]

let () =
  Alcotest.run "extensions"
    [
      ("explain", explain_tests);
      ("aggregate", aggregate_tests);
      ("incremental", incremental_tests);
      ("mine", mine_tests);
      ("align", align_tests);
      ("fusion", fusion_tests);
      ("cluster", cluster_tests);
    ]
