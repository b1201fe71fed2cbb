(* Tests for the relational substrate: values and 3VL, schemas, tuples,
   relations and keys, the algebra (including outer joins), key analysis,
   CSV round-trips, and the pretty printer. *)

module R = Relational
module V = R.Value

open Helpers

let case name f = Alcotest.test_case name `Quick f
let truth = Alcotest.testable V.pp_truth ( = )

(* ---- Value ---- *)

let value_tests =
  [
    case "eq3 null left is unknown" (fun () ->
        Alcotest.check truth "" V.Unknown (V.eq3 V.Null (v "a")));
    case "eq3 null right is unknown" (fun () ->
        Alcotest.check truth "" V.Unknown (V.eq3 (v "a") V.Null));
    case "eq3 equal strings" (fun () ->
        Alcotest.check truth "" V.True (V.eq3 (v "a") (v "a")));
    case "eq3 distinct strings" (fun () ->
        Alcotest.check truth "" V.False (V.eq3 (v "a") (v "b")));
    case "eq3 int vs float is numeric" (fun () ->
        Alcotest.check truth "" V.True (V.eq3 (vi 3) (V.float 3.0)));
    case "eq3 int vs string is false" (fun () ->
        Alcotest.check truth "" V.False (V.eq3 (vi 3) (v "3")));
    case "ne3 is negation of eq3" (fun () ->
        Alcotest.check truth "" V.False (V.ne3 (v "a") (v "a"));
        Alcotest.check truth "" V.Unknown (V.ne3 V.Null (v "a")));
    case "lt3 numeric" (fun () ->
        Alcotest.check truth "" V.True (V.lt3 (vi 1) (vi 2));
        Alcotest.check truth "" V.False (V.lt3 (vi 2) (vi 1)));
    case "lt3 cross-type is unknown" (fun () ->
        Alcotest.check truth "" V.Unknown (V.lt3 (vi 1) (v "a")));
    case "le3 ge3 gt3 on strings" (fun () ->
        Alcotest.check truth "" V.True (V.le3 (v "a") (v "b"));
        Alcotest.check truth "" V.True (V.gt3 (v "b") (v "a"));
        Alcotest.check truth "" V.True (V.ge3 (v "b") (v "b")));
    case "non_null_eq rejects null = null" (fun () ->
        Alcotest.(check bool) "" false (V.non_null_eq V.Null V.Null));
    case "non_null_eq accepts equal non-null" (fun () ->
        Alcotest.(check bool) "" true (V.non_null_eq (v "a") (v "a")));
    case "of_csv_string variants" (fun () ->
        Alcotest.(check bool) "" true (V.equal (V.of_csv_string "") V.Null);
        Alcotest.(check bool) "" true (V.equal (V.of_csv_string "null") V.Null);
        Alcotest.(check bool) "" true (V.equal (V.of_csv_string "42") (vi 42));
        Alcotest.(check bool) "" true
          (V.equal (V.of_csv_string "4.5") (V.float 4.5));
        Alcotest.(check bool) "" true
          (V.equal (V.of_csv_string "true") (V.bool true));
        Alcotest.(check bool) "" true
          (V.equal (V.of_csv_string "abc") (v "abc")));
    case "conforms with null" (fun () ->
        (* NULL carries no type tag; every other value carries its own. *)
        Alcotest.(check bool) "" true (V.type_of V.Null = None);
        Alcotest.(check bool) "" true (V.type_of (v "x") = Some V.TString));
  ]

let all_truths = [ V.True; V.False; V.Unknown ]

let kleene_tests =
  [
    case "and3 truth table" (fun () ->
        List.iter
          (fun (a, b, expected) ->
            Alcotest.check truth "" expected (V.and3 a b))
          [
            (V.True, V.True, V.True); (V.True, V.False, V.False);
            (V.True, V.Unknown, V.Unknown); (V.False, V.Unknown, V.False);
            (V.Unknown, V.Unknown, V.Unknown); (V.False, V.False, V.False);
          ]);
    case "or3 truth table" (fun () ->
        List.iter
          (fun (a, b, expected) ->
            Alcotest.check truth "" expected (V.or3 a b))
          [
            (V.True, V.False, V.True); (V.Unknown, V.True, V.True);
            (V.False, V.Unknown, V.Unknown); (V.False, V.False, V.False);
            (V.Unknown, V.Unknown, V.Unknown);
          ]);
    case "and3/or3 commutative, de morgan" (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                Alcotest.check truth "comm-and" (V.and3 a b) (V.and3 b a);
                Alcotest.check truth "comm-or" (V.or3 a b) (V.or3 b a);
                Alcotest.check truth "de-morgan"
                  (V.not3 (V.and3 a b))
                  (V.or3 (V.not3 a) (V.not3 b)))
              all_truths)
          all_truths);
  ]

let value_gen =
  QCheck2.Gen.(
    oneof
      [
        return V.Null;
        map V.int (int_range (-5) 5);
        (* Floats that collide numerically with the int range, so the
           mixed Int/Float comparisons actually get exercised. *)
        map V.float (oneofl [ -1.; 0.; 1.; 1.5; 2. ]);
        map V.string (oneofl [ "a"; "b"; "c" ]);
        map V.bool bool;
      ])

(* [Value.of_csv_string] before it decided cells by their first byte,
   copied verbatim: the reference the classifier must agree with. *)
let of_csv_string_reference s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "null" then V.Null
  else
    match int_of_string_opt s with
    | Some i -> V.Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> V.Float f
        | None -> (
            match String.lowercase_ascii s with
            | "true" -> V.Bool true
            | "false" -> V.Bool false
            | _ -> V.String s))

(* Stricter than [Value.equal]: a float must keep its bits, so -0. and
   0. (or two NaN payloads) count as different results. *)
let same_value a b =
  match a, b with
  | V.Float x, V.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> V.equal a b

(* Cells that sit on the classifier's edges: every ASCII letter first;
   null, true, false, nan, inf and infinity in mixed case with
   underscores; OCaml number syntax; the empty cell and non-ASCII bytes;
   any of these wrapped in whitespace, the vertical tab ('\011') among
   it though [String.trim] keeps it. *)
let csv_cell_gen =
  QCheck2.Gen.(
    let tail =
      string_size
        ~gen:(oneofl [ 'a'; 'Z'; '1'; '_'; '.'; ' '; 'e'; 'n'; 'f' ])
        (0 -- 6)
    in
    let letter_first =
      let* c = oneof [ char_range 'a' 'z'; char_range 'A' 'Z' ] in
      let* rest = tail in
      return (String.make 1 c ^ rest)
    in
    let word =
      let* w = oneofl [ "null"; "true"; "false"; "nan"; "inf"; "infinity" ] in
      let* upper = list_repeat (String.length w) bool in
      let w =
        String.mapi
          (fun i c -> if List.nth upper i then Char.uppercase_ascii c else c)
          w
      in
      let* cut = int_bound (String.length w) in
      let* underscore = frequency [ (3, return false); (1, return true) ] in
      return
        (if underscore then
           String.sub w 0 cut ^ "_" ^ String.sub w cut (String.length w - cut)
         else w)
    in
    let number =
      oneofl
        [ "_1"; "0x1F"; "0b101"; "0o17"; "1_000"; "+3"; "-0."; "1e5"; "42";
          "4.5"; "-nan"; "+inf"; "0x1p3"; "1."; ".5"; "_"; "-" ]
    in
    let odd =
      oneof
        [ return "";
          oneofl [ "\xc3\xa9t\xc3\xa9"; "\xef\xbb\xbfx"; "\xfftrue"; "t\xc3\xa9" ];
          string_size ~gen:char (0 -- 5) ]
    in
    let space = oneofl [ ""; " "; "\t"; "\r"; "\n"; "\012"; "\011" ] in
    let* core =
      frequency [ (4, letter_first); (4, word); (2, number); (1, odd) ]
    in
    let* lead = frequency [ (3, return ""); (1, space) ] in
    let* trail = frequency [ (3, return ""); (1, space) ] in
    return (lead ^ core ^ trail))

let value_props =
  [
    qtest "compare is reflexive" value_gen (fun a -> V.compare a a = 0);
    qtest "compare antisymmetric"
      QCheck2.Gen.(pair value_gen value_gen)
      (fun (a, b) -> V.compare a b = -V.compare b a);
    qtest "compare transitive through a pivot"
      QCheck2.Gen.(triple value_gen value_gen value_gen)
      (fun (a, b, c) ->
        (* sort by compare, then every adjacent pair must be <=. *)
        match List.sort V.compare [ a; b; c ] with
        | [ x; y; z ] -> V.compare x y <= 0 && V.compare y z <= 0
        | _ -> false);
    qtest "compare is zero exactly when equal"
      QCheck2.Gen.(pair value_gen value_gen)
      (fun (a, b) -> V.compare a b = 0 = V.equal a b);
    qtest "equal values hash equally"
      QCheck2.Gen.(pair value_gen value_gen)
      (fun (a, b) -> (not (V.equal a b)) || V.hash a = V.hash b);
    qtest "eq3 true implies non-null agreement"
      QCheck2.Gen.(pair value_gen value_gen)
      (fun (a, b) ->
        V.eq3 a b <> V.True || ((not (V.is_null a)) && not (V.is_null b)));
    case "Int/Float never compare equal across constructors" (fun () ->
        (* equal (Int 1) (Float 1.) is false, so compare must not return
           0 — it breaks Map/Set keying if it does. Numeric order still
           wins when the values differ. *)
        Alcotest.(check bool) "1 vs 1." true
          (V.compare (V.int 1) (V.float 1.) <> 0);
        Alcotest.(check bool) "antisym" true
          (V.compare (V.int 1) (V.float 1.)
          = -V.compare (V.float 1.) (V.int 1));
        Alcotest.(check bool) "1 < 1.5" true
          (V.compare (V.int 1) (V.float 1.5) < 0);
        Alcotest.(check bool) "2. > 1" true
          (V.compare (V.float 2.) (V.int 1) > 0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:5000 ~print:(Printf.sprintf "%S")
         ~name:"of_csv_string = the reference classifier" csv_cell_gen
         (fun s -> same_value (V.of_csv_string s) (of_csv_string_reference s)));
  ]

(* ---- Schema / Tuple ---- *)

let schema_tests =
  [
    check_raises_any "duplicate attribute rejected" (fun () ->
        R.Schema.of_names [ "a"; "a" ]);
    case "index_of and mem" (fun () ->
        let s = R.Schema.of_names [ "a"; "b"; "c" ] in
        Alcotest.(check int) "" 1 (R.Schema.index_of s "b");
        Alcotest.(check bool) "" true (R.Schema.mem s "c");
        Alcotest.(check bool) "" false (R.Schema.mem s "z"));
    check_raises_any "index_of unknown raises" (fun () ->
        R.Schema.index_of (R.Schema.of_names [ "a" ]) "z");
    case "project keeps requested order" (fun () ->
        let s = R.Schema.of_names [ "a"; "b"; "c" ] in
        Alcotest.(check (list string))
          "" [ "c"; "a" ]
          (R.Schema.names (R.Schema.project s [ "c"; "a" ])));
    case "rename with clash rejected" (fun () ->
        let s = R.Schema.of_names [ "a"; "b" ] in
        Alcotest.(check bool) "" true
          (match R.Schema.rename s [ ("a", "b") ] with
          | _ -> false
          | exception R.Schema.Duplicate_attribute _ -> true));
    case "restrict_away and common" (fun () ->
        let s = R.Schema.of_names [ "a"; "b"; "c" ] in
        let t = R.Schema.of_names [ "b"; "c"; "d" ] in
        Alcotest.(check (list string))
          "" [ "a" ]
          (R.Schema.names (R.Schema.restrict_away s [ "b"; "c" ]));
        Alcotest.(check (list string)) "" [ "b"; "c" ] (R.Schema.common s t));
  ]

let tuple_tests =
  [
    check_raises_any "arity mismatch raises" (fun () ->
        R.Tuple.make (R.Schema.of_names [ "a"; "b" ]) [ v "1" ]);
    case "get / set" (fun () ->
        let s = R.Schema.of_names [ "a"; "b" ] in
        let t = R.Tuple.make s [ v "1"; v "2" ] in
        let t' = R.Tuple.set s t "b" (v "9") in
        Alcotest.(check string) "" "9" (V.to_string (R.Tuple.get s t' "b"));
        Alcotest.(check string) "unchanged" "2"
          (V.to_string (R.Tuple.get s t "b")));
    case "project and concat" (fun () ->
        let s = R.Schema.of_names [ "a"; "b"; "c" ] in
        let t = R.Tuple.make s [ v "1"; v "2"; v "3" ] in
        let p = R.Tuple.project s t [ "c"; "a" ] in
        Alcotest.(check int) "" 2 (R.Tuple.arity p);
        Alcotest.(check int) "" 5 (R.Tuple.arity (R.Tuple.concat t p)));
    case "agree requires non-null equality" (fun () ->
        let s = R.Schema.of_names [ "a" ] in
        let t1 = R.Tuple.make s [ v "x" ] in
        let t2 = R.Tuple.make s [ v "x" ] in
        let tn = R.Tuple.make s [ V.Null ] in
        Alcotest.(check bool) "" true (R.Tuple.agree s t1 s t2 [ "a" ]);
        Alcotest.(check bool) "" false (R.Tuple.agree s tn s tn [ "a" ]));
    case "has_null" (fun () ->
        let s = R.Schema.of_names [ "a"; "b" ] in
        Alcotest.(check bool) "" true
          (R.Tuple.has_null (R.Tuple.make s [ v "1"; V.Null ]));
        Alcotest.(check bool) "" false
          (R.Tuple.has_null (R.Tuple.make s [ v "1"; v "2" ])));
    check_raises_any "plan on a missing attribute raises like index_of"
      (fun () -> R.Tuple.plan (R.Schema.of_names [ "a"; "b" ]) [ "a"; "z" ]);
    qtest "plan-based projection equals name-based projection"
      QCheck2.Gen.(
        let names = [ "a"; "b"; "c"; "d"; "e" ] in
        pair
          (list_size (0 -- 4) (oneofl names))
          (list_size (5 -- 5) small_nat))
      (fun (wanted, cells) ->
        let s = R.Schema.of_names [ "a"; "b"; "c"; "d"; "e" ] in
        let t = R.Tuple.make s (List.map R.Value.int cells) in
        let plan = R.Tuple.plan s wanted in
        R.Tuple.plan_arity plan = List.length wanted
        && R.Tuple.equal
             (R.Tuple.project_with plan t)
             (R.Tuple.project s t wanted));
    qtest "agree_with equals agree on shared attributes"
      QCheck2.Gen.(
        triple
          (list_size (1 -- 3) (oneofl [ "a"; "b"; "c" ]))
          (list_size (3 -- 3) (oneofl [ Some 0; Some 1; None ]))
          (list_size (3 -- 3) (oneofl [ Some 0; Some 1; None ])))
      (fun (attrs, cells1, cells2) ->
        let cell = function Some i -> R.Value.int i | None -> V.Null in
        let s = R.Schema.of_names [ "a"; "b"; "c" ] in
        let t1 = R.Tuple.make s (List.map cell cells1)
        and t2 = R.Tuple.make s (List.map cell cells2) in
        let p = R.Tuple.plan s attrs in
        R.Tuple.agree_with p p t1 t2 = R.Tuple.agree s t1 s t2 attrs);
  ]

(* ---- Relation ---- *)

(* ---- the builder's append, held to Relation.add ---- *)

(* Cells that sit on every edge of key equality: NULL, [Int 1] vs
   [Float 1.], [nan] (equal to itself), [0.] vs [-0.] (equal). *)
let key_cell_gen =
  QCheck2.Gen.oneofl
    [ V.Null; V.int 1; V.float 1.; V.float Float.nan; V.float 0.;
      V.float (-0.); V.string "x"; V.int 2 ]

(* Insert sequences drawn from a small pool of rows, so exact duplicates
   and key collisions are common; no key, one key, a composite key and
   two declared keys. *)
let insert_sequence_gen =
  QCheck2.Gen.(
    let* keys =
      oneofl
        [ []; [ [ "a" ] ]; [ [ "a"; "b" ] ]; [ [ "a" ]; [ "b"; "c" ] ];
          [ [ "c" ]; [ "a" ] ] ]
    in
    let* pool =
      list_size (1 -- 6) (triple key_cell_gen key_cell_gen key_cell_gen)
    in
    let pool = Array.of_list pool in
    let* picks = list_size (0 -- 20) (int_bound (Array.length pool - 1)) in
    return (keys, List.map (fun i -> pool.(i)) picks))

(* After every offer the builder agrees with [Relation.add] on what it
   keeps or raises, builds the same relation, and a rejected tuple
   interned nothing. *)
let keyed_agrees (keys, rows) =
  let schema = R.Schema.of_names [ "a"; "b"; "c" ] in
  let b = R.Relation.builder ~rows:0 schema ~keys in
  let violation f =
    match f () with
    | x -> Ok x
    | exception R.Relation.Key_violation { key; tuple } -> Error (key, tuple)
  in
  let step (rel, ok) (x, y, z) =
    let tuple = R.Tuple.make schema [ x; y; z ] in
    let kept = R.Relation.kept b and interned = R.Intern.size () in
    let appended = violation (fun () -> R.Relation.append b tuple) in
    let unchanged = R.Intern.size () = interned in
    match (violation (fun () -> R.Relation.add rel tuple), appended) with
    | Ok rel', Ok false ->
        ( rel,
          ok
          && R.Relation.cardinality rel' = R.Relation.cardinality rel
          && R.Relation.kept b = kept )
    | Ok rel', Ok true ->
        ( rel',
          ok
          && R.Relation.cardinality rel' = R.Relation.cardinality rel + 1
          && R.Relation.kept b = kept + 1
          && R.Relation.equal (R.Relation.build b) rel' )
    | Error (k1, t1), Error (k2, t2) ->
        ( rel,
          ok && k1 = k2 && R.Tuple.equal t1 t2
          && R.Relation.kept b = kept
          && unchanged )
    | _ -> (rel, false)
  in
  let rel, ok =
    List.fold_left step (R.Relation.empty schema ~keys (), true) rows
  in
  let pk = R.Relation.primary_key rel in
  let probe (x, y, z) =
    let key = R.Tuple.project schema (R.Tuple.make schema [ x; y; z ]) pk in
    Option.is_some (R.Relation.find_key b (R.Tuple.to_array key))
    = R.Relation.exists
        (fun row -> R.Tuple.equal (R.Tuple.project schema row pk) key)
        rel
  in
  ok
  && List.equal R.Tuple.equal (R.Relation.tuples rel)
       (List.init (R.Relation.kept b) (R.Relation.kept_row b))
  && List.for_all probe rows

let relation_tests =
  [
    case "exact duplicates collapse" (fun () ->
        let r = relation [ "a" ] [] [ [ "x" ]; [ "x" ]; [ "y" ] ] in
        Alcotest.(check int) "" 2 (R.Relation.cardinality r));
    check_raises_any "key violation on duplicate key" (fun () ->
        relation [ "a"; "b" ] [ [ "a" ] ] [ [ "x"; "1" ]; [ "x"; "2" ] ]);
    case "null in declared key rejected" (fun () ->
        Alcotest.(check bool) "" true
          (match
             R.Relation.create
               (R.Schema.of_names [ "a" ])
               ~keys:[ [ "a" ] ]
               [ [ V.Null ] ]
           with
          | _ -> false
          | exception R.Relation.Key_violation _ -> true));
    case "defaulted key reported but not enforced" (fun () ->
        let r =
          R.Relation.create (R.Schema.of_names [ "a" ]) [ [ V.Null ] ]
        in
        Alcotest.(check (list (list string))) "" [ [ "a" ] ] (R.Relation.keys r);
        Alcotest.(check (list (list string))) "" [] (R.Relation.declared_keys r));
    case "add preserves keys" (fun () ->
        let r = relation [ "a" ] [ [ "a" ] ] [ [ "x" ] ] in
        let r' =
          R.Relation.add r (R.Tuple.make (R.Relation.schema r) [ v "y" ])
        in
        Alcotest.(check int) "" 2 (R.Relation.cardinality r');
        Alcotest.(check bool) "" true
          (match
             R.Relation.add r' (R.Tuple.make (R.Relation.schema r) [ v "x" ])
           with
          | r'' -> R.Relation.cardinality r'' = 2 (* dedup, not violation *)
          | exception R.Relation.Key_violation _ -> false));
    case "equal ignores tuple order" (fun () ->
        let a = relation [ "a" ] [] [ [ "x" ]; [ "y" ] ] in
        let b = relation [ "a" ] [] [ [ "y" ]; [ "x" ] ] in
        Alcotest.(check bool) "" true (R.Relation.equal a b));
    case "key_of projects primary key" (fun () ->
        let r = relation [ "a"; "b" ] [ [ "b" ] ] [ [ "x"; "1" ] ] in
        let t = List.hd (R.Relation.tuples r) in
        Alcotest.(check int) "" 1 (R.Tuple.arity (R.Relation.key_of r t)));
    case "with_keys revalidates" (fun () ->
        let r = relation [ "a"; "b" ] [] [ [ "x"; "1" ]; [ "x"; "2" ] ] in
        Alcotest.(check bool) "" true
          (match R.Relation.with_keys r [ [ "a" ] ] with
          | _ -> false
          | exception R.Relation.Key_violation _ -> true));
    qtest ~count:500 "keyed append agrees with add" insert_sequence_gen
      keyed_agrees;
    case "of_tuples rejects a tuple of the wrong arity" (fun () ->
        let schema = R.Schema.of_names [ "a"; "b" ] in
        let narrow = R.Tuple.make (R.Schema.of_names [ "a" ]) [ v "x" ] in
        Alcotest.check_raises "arity"
          (R.Tuple.Arity_mismatch { expected = 2; got = 1 }) (fun () ->
            ignore
              (R.Relation.of_tuples schema
                 [ R.Tuple.make schema [ v "x"; v "y" ]; narrow ])));
  ]

(* ---- Algebra ---- *)

let abc = relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "2"; "y" ]; [ "3"; "x" ] ]

let algebra_tests =
  [
    case "select by predicate" (fun () ->
        let out = R.Algebra.select (R.Predicate.eq "b" (v "x")) abc in
        Alcotest.(check int) "" 2 (R.Relation.cardinality out));
    case "select never keeps unknown (null)" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a" ])
            [ [ V.Null ]; [ v "x" ] ]
        in
        let out = R.Algebra.select (R.Predicate.eq "a" (v "x")) r in
        Alcotest.(check int) "" 1 (R.Relation.cardinality out);
        let out_ne =
          R.Algebra.select
            (R.Predicate.Not (R.Predicate.eq "a" (v "x")))
            r
        in
        Alcotest.(check int) "negation of unknown still unknown" 0
          (R.Relation.cardinality out_ne));
    case "project dedups" (fun () ->
        let out = R.Algebra.project [ "b" ] abc in
        Alcotest.(check int) "" 2 (R.Relation.cardinality out));
    case "rename carries keys" (fun () ->
        let r = relation [ "a"; "b" ] [ [ "a" ] ] [ [ "1"; "x" ] ] in
        let out = R.Algebra.rename [ ("a", "z") ] r in
        Alcotest.(check (list (list string))) "" [ [ "z" ] ]
          (R.Relation.keys out));
    case "prefix renames all" (fun () ->
        let out = R.Algebra.prefix "r_" abc in
        Alcotest.(check (list string)) "" [ "r_a"; "r_b" ]
          (R.Schema.names (R.Relation.schema out)));
    check_raises_any "product with clash raises" (fun () ->
        R.Algebra.product abc abc);
    case "product cardinality" (fun () ->
        let other = relation [ "c" ] [] [ [ "1" ]; [ "2" ] ] in
        Alcotest.(check int) "" 6
          (R.Relation.cardinality (R.Algebra.product abc other)));
    case "equi_join basic" (fun () ->
        let left = relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "2"; "y" ] ] in
        let right = relation [ "c"; "d" ] [] [ [ "x"; "p" ]; [ "x"; "q" ] ] in
        let out = R.Algebra.equi_join ~on:[ ("b", "c") ] left right in
        Alcotest.(check int) "" 2 (R.Relation.cardinality out));
    case "equi_join null keys never join" (fun () ->
        let left =
          R.Relation.create (R.Schema.of_names [ "b" ]) [ [ V.Null ] ]
        in
        let right =
          R.Relation.create (R.Schema.of_names [ "c" ]) [ [ V.Null ] ]
        in
        Alcotest.(check int) "" 0
          (R.Relation.cardinality
             (R.Algebra.equi_join ~on:[ ("b", "c") ] left right)));
    case "outer joins pad with nulls" (fun () ->
        let left = relation [ "a" ] [] [ [ "x" ]; [ "y" ] ] in
        let right = relation [ "b" ] [] [ [ "x" ]; [ "z" ] ] in
        let lo = R.Algebra.left_outer_join ~on:[ ("a", "b") ] left right in
        let ro = R.Algebra.right_outer_join ~on:[ ("a", "b") ] left right in
        let fo = R.Algebra.full_outer_join ~on:[ ("a", "b") ] left right in
        Alcotest.(check int) "left" 2 (R.Relation.cardinality lo);
        Alcotest.(check int) "right" 2 (R.Relation.cardinality ro);
        Alcotest.(check int) "full" 3 (R.Relation.cardinality fo);
        let nulls rel =
          List.length
            (List.filter R.Tuple.has_null (R.Relation.tuples rel))
        in
        Alcotest.(check int) "full outer null-padded rows" 2 (nulls fo));
    case "natural_join merges common attrs" (fun () ->
        let left = relation [ "a"; "b" ] [] [ [ "1"; "x" ] ] in
        let right = relation [ "b"; "c" ] [] [ [ "x"; "9" ] ] in
        let out = R.Algebra.natural_join left right in
        Alcotest.(check (list string)) "" [ "a"; "b"; "c" ]
          (R.Schema.names (R.Relation.schema out));
        Alcotest.(check int) "" 1 (R.Relation.cardinality out));
    case "natural_join without common attrs is product" (fun () ->
        let left = relation [ "a" ] [] [ [ "1" ]; [ "2" ] ] in
        let right = relation [ "b" ] [] [ [ "x" ] ] in
        Alcotest.(check int) "" 2
          (R.Relation.cardinality (R.Algebra.natural_join left right)));
    case "union inter diff" (fun () ->
        let x = relation [ "a" ] [] [ [ "1" ]; [ "2" ] ] in
        let y = relation [ "a" ] [] [ [ "2" ]; [ "3" ] ] in
        Alcotest.(check int) "union" 3
          (R.Relation.cardinality (R.Algebra.union x y));
        Alcotest.(check int) "inter" 1
          (R.Relation.cardinality (R.Algebra.inter x y));
        Alcotest.(check int) "diff" 1
          (R.Relation.cardinality (R.Algebra.diff x y)));
    check_raises_any "union incompatible raises" (fun () ->
        R.Algebra.union abc (relation [ "z" ] [] []));
    case "sort_by orders" (fun () ->
        let out = R.Algebra.sort_by [ "b"; "a" ] abc in
        let firsts =
          List.map
            (fun t -> V.to_string (R.Tuple.nth t 0))
            (R.Relation.tuples out)
        in
        Alcotest.(check (list string)) "" [ "1"; "3"; "2" ] firsts);
    case "theta_join equals filtered product" (fun () ->
        let left = relation [ "a" ] [] [ [ "1" ]; [ "2" ] ] in
        let right = relation [ "b" ] [] [ [ "1" ]; [ "3" ] ] in
        let theta =
          R.Algebra.theta_join
            (R.Predicate.eq_attr "a" "b")
            left right
        in
        let equi = R.Algebra.equi_join ~on:[ ("a", "b") ] left right in
        Alcotest.(check bool) "" true (R.Relation.equal theta equi));
  ]

(* Random small relations over fixed schemas for algebraic laws. *)
let small_cell_gen =
  QCheck2.Gen.(
    oneof
      [ return V.Null; map V.int (int_range 0 3);
        map V.string (oneofl [ "x"; "y" ]) ])

let rel_gen names =
  QCheck2.Gen.(
    let width = List.length names in
    map
      (fun rows ->
        R.Relation.create (R.Schema.of_names names) rows)
      (list_size (0 -- 6) (list_repeat width small_cell_gen)))

let ab_gen = rel_gen [ "a"; "b" ]
let cd_gen = rel_gen [ "c"; "d" ]

(* Cell values that stress CSV quoting: separators, quotes, bare CR/LF,
   and NULL. Strings are chosen to survive [of_csv_string]'s cell
   inference (no numerals, no "null"/"true", no leading/trailing
   whitespace — it trims) so round-trips are exact. *)
let awkward_value_gen =
  QCheck2.Gen.oneofl
    [
      V.Null;
      v "plain";
      v "with,comma";
      v "with\"quote";
      v "line1\nline2";
      v "cr\rmiddle";
      v "\"quoted\"";
      v ",";
    ]

let algebra_law_tests =
  [
    qtest ~count:60 "selection is idempotent" ab_gen (fun r ->
        let p = R.Predicate.eq "a" (vi 1) in
        R.Relation.equal
          (R.Algebra.select p r)
          (R.Algebra.select p (R.Algebra.select p r)));
    qtest ~count:60 "selection commutes" ab_gen (fun r ->
        let p = R.Predicate.eq "a" (vi 1) in
        let q = R.Predicate.eq "b" (v "x") in
        R.Relation.equal
          (R.Algebra.select p (R.Algebra.select q r))
          (R.Algebra.select q (R.Algebra.select p r)));
    qtest ~count:60 "selection pushes through join"
      QCheck2.Gen.(pair ab_gen cd_gen)
      (fun (left, right) ->
        let p = R.Predicate.eq "a" (vi 1) in
        R.Relation.equal
          (R.Algebra.select p (R.Algebra.equi_join ~on:[ ("b", "c") ] left right))
          (R.Algebra.equi_join ~on:[ ("b", "c") ] (R.Algebra.select p left)
             right));
    qtest ~count:60 "join bounded by product"
      QCheck2.Gen.(pair ab_gen cd_gen)
      (fun (left, right) ->
        R.Relation.cardinality
          (R.Algebra.equi_join ~on:[ ("b", "c") ] left right)
        <= R.Relation.cardinality left * R.Relation.cardinality right);
    qtest ~count:60 "full outer join covers both sides"
      QCheck2.Gen.(pair ab_gen cd_gen)
      (fun (left, right) ->
        let fo = R.Algebra.full_outer_join ~on:[ ("b", "c") ] left right in
        let lo = R.Algebra.left_outer_join ~on:[ ("b", "c") ] left right in
        let ro = R.Algebra.right_outer_join ~on:[ ("b", "c") ] left right in
        R.Relation.cardinality fo >= R.Relation.cardinality left
        && R.Relation.cardinality fo >= R.Relation.cardinality right
        && R.Relation.cardinality lo >= R.Relation.cardinality left
        && R.Relation.cardinality ro >= R.Relation.cardinality right);
    qtest ~count:60 "union commutative, inter bounded"
      QCheck2.Gen.(pair ab_gen ab_gen)
      (fun (x, y) ->
        R.Relation.equal (R.Algebra.union x y) (R.Algebra.union y x)
        && R.Relation.cardinality (R.Algebra.inter x y)
           <= min (R.Relation.cardinality x) (R.Relation.cardinality y));
    qtest ~count:60 "diff then union restores a superset"
      QCheck2.Gen.(pair ab_gen ab_gen)
      (fun (x, y) ->
        (* (x − y) ∪ (x ∩ y) = x *)
        R.Relation.equal
          (R.Algebra.union (R.Algebra.diff x y) (R.Algebra.inter x y))
          x);
    qtest ~count:60 "project after union = union after project"
      QCheck2.Gen.(pair ab_gen ab_gen)
      (fun (x, y) ->
        R.Relation.equal
          (R.Algebra.project [ "a" ] (R.Algebra.union x y))
          (R.Algebra.union (R.Algebra.project [ "a" ] x)
             (R.Algebra.project [ "a" ] y)));
    qtest ~count:60 "sort preserves content" ab_gen (fun r ->
        R.Relation.equal r (R.Algebra.sort_by [ "b"; "a" ] r));
    qtest ~count:60 "csv round-trip on random relations" ab_gen (fun r ->
        R.Relation.equal r
          (R.Csv_io.relation_of_string (R.Csv_io.to_string r)));
    qtest ~count:40 "csv save/load round-trip with awkward values"
      QCheck2.Gen.(
        list_size (0 -- 6)
          (pair awkward_value_gen awkward_value_gen))
      (fun rows ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a"; "b" ])
            (List.map (fun (x, y) -> [ x; y ]) rows)
        in
        let path = Filename.temp_file "relational_qtest" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            R.Csv_io.save r path;
            R.Relation.equal r (R.Csv_io.load path)));
  ]

(* ---- Key tools ---- *)

let key_tools_tests =
  [
    case "is_superkey / candidate / minimal" (fun () ->
        let r =
          relation [ "a"; "b"; "c" ] []
            [ [ "1"; "x"; "p" ]; [ "1"; "y"; "p" ]; [ "2"; "x"; "q" ] ]
        in
        Alcotest.(check bool) "ab superkey" true
          (R.Key_tools.is_superkey r [ "a"; "b" ]);
        Alcotest.(check bool) "a not" false (R.Key_tools.is_superkey r [ "a" ]);
        Alcotest.(check bool) "abc superkey but not candidate" false
          (R.Key_tools.is_candidate_key r [ "a"; "b"; "c" ]);
        Alcotest.(check bool) "ab candidate" true
          (R.Key_tools.is_candidate_key r [ "a"; "b" ]);
        let keys = R.Key_tools.minimal_keys r in
        Alcotest.(check bool) "ab among minimal" true
          (List.mem [ "a"; "b" ] keys || List.mem [ "b"; "a" ] keys));
    case "null key attribute disqualifies" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a" ])
            [ [ V.Null ]; [ v "x" ] ]
        in
        Alcotest.(check bool) "" false (R.Key_tools.is_superkey r [ "a" ]));
    case "violating pair found" (fun () ->
        let r = relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "1"; "y" ] ] in
        Alcotest.(check bool) "" true
          (Option.is_some (R.Key_tools.violating_pair r [ "a" ])));
  ]

(* ---- CSV ---- *)

(* CSV text over the key-edge cells, rendered as the loader reads them:
   empty and "null" (NULL), 1 and 1.0 (Int vs Float), nan and Nan, 0.
   and -0. (equal floats), x and "x " (equal once trimmed), TRUE, Thai (a
   string starting like true), and a quoted cell holding a comma. Rows come from
   a small pool, so exact duplicates and key collisions are common; a
   ragged row, an unterminated quote at the end and CRLF separators turn
   up now and then. Keys: none, one, composite, two declared keys, and
   keys naming a missing column. *)
let csv_text_gen =
  QCheck2.Gen.(
    let cell =
      oneofl
        [ ""; "null"; "1"; "1.0"; "nan"; "Nan"; "0."; "-0."; "x"; "x "; "TRUE";
          "Thai"; "\"x,y\"" ]
    in
    let* keys =
      oneofl
        [ []; [ [ "a" ] ]; [ [ "a"; "b" ] ]; [ [ "a" ]; [ "b"; "c" ] ];
          [ [ "c" ]; [ "a" ] ]; [ [ "a" ]; [ "zz" ] ]; [ [ "zz"; "a" ] ];
          [ [ "b" ]; [ "a" ]; [ "c"; "zz" ] ] ]
    in
    let* pool = list_size (1 -- 6) (list_repeat 3 cell) in
    let pool = Array.of_list (List.map (String.concat ",") pool) in
    let* rows =
      list_size (0 -- 20)
        (frequency
           [ (80, map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)));
             (1, map (String.concat ",") (list_size (1 -- 4) cell)) ])
    in
    let* eol = oneofl [ "\n"; "\r\n" ] in
    let* tail = frequency [ (20, return ""); (1, return "\"x") ] in
    return (keys, String.concat eol ("a,b,c" :: rows) ^ eol ^ tail))

(* Texts whose newline count over-estimates their rows, which the
   loader sizes its builder by: quoted cells holding LF, CRLF or several
   newlines (one with a doubled quote), CRLF separators, and a last
   record with or without its separator. Rows come from a small pool,
   so duplicates and key collisions are common. *)
let csv_multiline_gen =
  QCheck2.Gen.(
    let cell =
      oneofl
        [ ""; "1"; "2.5"; "x"; "\"a\nb\""; "\"a\r\nb\""; "\"\n\n\""; "\"q\"\"\n\"";
          "\"x,y\"" ]
    in
    let* keys = oneofl [ []; [ [ "a" ] ]; [ [ "a"; "b" ] ]; [ [ "c" ]; [ "b" ] ] ] in
    let* pool = list_size (1 -- 5) (list_repeat 3 cell) in
    let pool = Array.of_list (List.map (String.concat ",") pool) in
    let* rows =
      list_size (0 -- 15)
        (map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)))
    in
    let* eol = oneofl [ "\n"; "\r\n" ] in
    let* last = oneofl [ ""; eol ] in
    return (keys, String.concat eol ("a,b,c" :: rows) ^ last))

(* Witnesses compare with [Tuple.equal]: a loaded cell is the intern
   pool's representative of its class, so a 0. cell may come back as a
   -0. interned earlier. *)
let csv_outcome f =
  match f () with
  | r -> Ok r
  | exception R.Csv_io.Parse_error { line; message } ->
      Error (`Parse (line, message))
  | exception R.Schema.Unknown_attribute a -> Error (`Unknown a)
  | exception R.Relation.Key_violation { key; tuple } ->
      Error (`Key (key, tuple))

(* [parse_string]'s records as tuples over the header's schema. *)
let csv_records text =
  match R.Csv_io.parse_string text with
  | [] ->
      raise
        (R.Csv_io.Parse_error
           { line = 1; message = "empty CSV: missing header row" })
  | header :: rows ->
      let schema = R.Schema.of_names (List.map String.trim header) in
      let arity = R.Schema.arity schema in
      let tuple i cells =
        let got = List.length cells in
        if got <> arity then
          raise
            (R.Csv_io.Parse_error
               {
                 line = i + 2;
                 message = Printf.sprintf "expected %d cells, got %d" arity got;
               });
        R.Tuple.make schema (List.map R.Value.of_csv_string cells)
      in
      (schema, List.mapi tuple rows)

(* The reference is the checker's tuple-based set-semantics pass over
   [parse_string]'s records; [Relation.of_tuples] over them is one more
   side. *)
let csv_load_agrees (keys, text) =
  let reference () =
    let schema, tuples = csv_records text in
    (schema, Checker.Reference.set_semantics schema ~keys tuples)
  and general () =
    let schema, tuples = csv_records text in
    R.Relation.of_tuples schema ~keys tuples
  in
  match
    ( csv_outcome (fun () -> R.Csv_io.relation_of_string ~keys text),
      csv_outcome reference,
      csv_outcome general )
  with
  | Ok loaded, Ok (schema, kept), Ok built ->
      let rows = R.Relation.tuples loaded in
      let encoded = Checker.Reference.encode schema (Array.of_list rows) in
      List.equal R.Tuple.equal rows kept
      && List.equal R.Tuple.equal rows (R.Relation.tuples built)
      && R.Relation.declared_keys loaded = keys
      && R.Columnar.equal (R.Relation.columnar loaded) encoded
      && R.Columnar.equal (R.Relation.columnar built) encoded
  | Error (`Key (k1, t1)), Error (`Key (k2, t2)), Error (`Key (k3, t3)) ->
      k1 = k2 && k2 = k3 && R.Tuple.equal t1 t2 && R.Tuple.equal t2 t3
  | Error a, Error b, Error c -> a = b && b = c
  | _ -> false

let csv_tests =
  [
    case "round-trip with quoting" (fun () ->
        let r =
          R.Relation.create
            (R.Schema.of_names [ "a"; "b" ])
            [
              [ v "plain"; v "with,comma" ];
              [ v "with\"quote"; v "with\nnewline" ];
              [ V.Null; vi 42 ];
            ]
        in
        let round =
          R.Csv_io.relation_of_string (R.Csv_io.to_string r)
        in
        Alcotest.(check bool) "" true (R.Relation.equal r round));
    case "keys applied on load" (fun () ->
        let r =
          R.Csv_io.relation_of_string ~keys:[ [ "a" ] ] "a,b\n1,x\n2,y\n"
        in
        Alcotest.(check (list (list string))) "" [ [ "a" ] ]
          (R.Relation.keys r));
    check_raises_any "ragged row rejected" (fun () ->
        R.Csv_io.relation_of_string "a,b\n1\n");
    check_raises_any "unterminated quote rejected" (fun () ->
        R.Csv_io.relation_of_string "a\n\"oops\n");
    check_raises_any "empty input rejected" (fun () ->
        R.Csv_io.relation_of_string "");
    case "crlf accepted" (fun () ->
        let r = R.Csv_io.relation_of_string "a,b\r\n1,2\r\n" in
        Alcotest.(check int) "" 1 (R.Relation.cardinality r));
    case "lone CR is field content, not a separator" (fun () ->
        (* Regression: a CR not followed by LF used to be dropped. *)
        let r = R.Csv_io.relation_of_string "a\nx\rz\n" in
        let expected =
          R.Relation.create (R.Schema.of_names [ "a" ]) [ [ v "x\rz" ] ]
        in
        Alcotest.(check bool) "" true (R.Relation.equal r expected));
    case "final quoted empty field at EOF kept" (fun () ->
        (* Regression: a last record consisting of a single [""] with no
           trailing newline used to be dropped entirely. *)
        let r = R.Csv_io.relation_of_string "a\nx\n\"\"" in
        Alcotest.(check int) "" 2 (R.Relation.cardinality r);
        let expected =
          R.Relation.create
            (R.Schema.of_names [ "a" ])
            [ [ v "x" ]; [ V.Null ] ]
        in
        Alcotest.(check bool) "" true (R.Relation.equal r expected));
    case "save and load through a file" (fun () ->
        let path = Filename.temp_file "relational_test" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            (* values that survive of_csv_string's type inference *)
            let r =
              relation [ "a"; "b" ] [ [ "a" ] ]
                [ [ "one"; "x" ]; [ "two"; "y" ] ]
            in
            R.Csv_io.save r path;
            let back = R.Csv_io.load ~keys:[ [ "a" ] ] path in
            Alcotest.(check bool) "" true (R.Relation.equal r back);
            Alcotest.(check (list (list string))) "" [ [ "a" ] ]
              (R.Relation.keys back)));
    case "repeated header column is a parse error" (fun () ->
        match R.Csv_io.relation_of_string "name,cuisine,name\nx,y,z\n" with
        | _ -> Alcotest.fail "expected a parse error"
        | exception R.Csv_io.Parse_error { line; message } ->
            Alcotest.(check int) "line" 1 line;
            Alcotest.(check string) "message"
              "duplicate column \"name\" in the header" message);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000 ~name:"load = of_tuples over parse_string"
         ~print:(fun (keys, text) ->
           Printf.sprintf "keys %s, text %S"
             (String.concat ";" (List.map (String.concat ",") keys))
             text)
         csv_text_gen csv_load_agrees);
    case "a UTF-8 byte-order mark is not part of the first column" (fun () ->
        let text = "\xef\xbb\xbfname,cuisine\nAnjuman,Indian\n" in
        Alcotest.(check (list (list string))) "parse_string"
          [ [ "name"; "cuisine" ]; [ "Anjuman"; "Indian" ] ]
          (R.Csv_io.parse_string text);
        let r =
          R.Csv_io.relation_of_string ~keys:[ [ "name"; "cuisine" ] ] text
        in
        Alcotest.(check (list string)) "columns" [ "name"; "cuisine" ]
          (R.Schema.names (R.Relation.schema r));
        Alcotest.(check bool) "row" true
          (R.Relation.equal r
             (relation [ "name"; "cuisine" ] [ [ "name"; "cuisine" ] ]
                [ [ "Anjuman"; "Indian" ] ])));

    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000
         ~name:"newline-sized load = of_tuples over parse_string"
         ~print:(fun (keys, text) ->
           Printf.sprintf "keys %s, text %S"
             (String.concat ";" (List.map (String.concat ",") keys))
             text)
         csv_multiline_gen csv_load_agrees);
    case "save raises when the closing flush fails" (fun () ->
        (* /dev/full takes the open and fails every write. *)
        if Sys.file_exists "/dev/full" then
          match R.Csv_io.save abc "/dev/full" with
          | () -> Alcotest.fail "a failed flush must raise"
          | exception Sys_error _ -> ());
    case "output writes what to_string returns" (fun () ->
        let path = Filename.temp_file "relational_test" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc -> R.Csv_io.output oc abc);
            Alcotest.(check string) "" (R.Csv_io.to_string abc)
              (In_channel.with_open_bin path In_channel.input_all)));
  ]

(* ---- Coded paths: the code table, on-demand decoding, match codes ---- *)

(* Cells for the coded paths: NULLs, strings, and ints and floats equal
   as numbers, some at or above 2^53, where an int may have no float
   equal to it, and at the ends of the int range. *)
let coded_cell_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, return V.Null);
        (3, map V.string (oneofl [ "a"; "b"; "c" ]));
        (3, map V.int (int_range (-2) 2));
        (3, map (fun i -> V.float (float_of_int i)) (int_range (-2) 2));
        (1, map V.float (oneofl [ 0.5; -0.; Float.nan ]));
        ( 1,
          oneofl
            [
              V.int (1 lsl 53);
              V.int ((1 lsl 53) + 1);
              V.int (-(1 lsl 53) - 1);
              V.float 9007199254740992.;
              V.float 9007199254740994.;
              V.float (-9007199254740994.);
            ] );
        ( 1,
          oneofl
            [ V.int max_int; V.int min_int; V.float 0x1p62; V.float (-0x1p62) ]
        );
      ])

(* Derivation classes as a polymorphic hash table over fresh key arrays
   numbers them: ids in first-row order. *)
let classes_reference cols n =
  let tbl = Hashtbl.create 16 in
  let firsts = ref [] in
  let class_of_row =
    Array.init n (fun i ->
        let k = Array.map (fun col -> col.(i)) cols in
        match Hashtbl.find_opt tbl k with
        | Some c -> c
        | None ->
            let c = Hashtbl.length tbl in
            Hashtbl.add tbl k c;
            firsts := i :: !firsts;
            c)
  in
  (class_of_row, Array.of_list (List.rev !firsts))

let code_columns_gen =
  QCheck2.Gen.(
    let* width = 0 -- 3 and* n = 0 -- 60 in
    let* cols = list_repeat width (array_repeat n (0 -- 4)) in
    return (Array.of_list cols, n))

let coded_schema = R.Schema.of_names [ "id"; "a"; "b" ]

(* Rows over [coded_schema]: an id from a small range (so some rows
   repeat, exactly or on the id), and two coded cells. *)
let coded_rows_gen =
  QCheck2.Gen.(
    list_size (0 -- 25)
      (let* id = 0 -- 12 and* a = coded_cell_gen and* b = coded_cell_gen in
       return [ V.int id; a; b ]))

(* The builder sized for half the rows offered, so that it grows. *)
let build_coded schema ~keys rows =
  let b = R.Relation.builder ~rows:(List.length rows / 2) schema ~keys in
  List.iter
    (fun row ->
      R.Relation.add_codes b (Array.of_list (List.map R.Intern.code row)))
    rows;
  R.Relation.build b

(* A coded relation [r] against the rows [kept] the checker's
   set-semantics pass keeps: read the tuples first, or the columns
   first. *)
let same_relation ~tuples_first r kept =
  let n = List.length kept in
  let same_tuples () = List.equal R.Tuple.equal (R.Relation.tuples r) kept
  and same_rows () =
    List.equal R.Tuple.equal (List.init n (R.Relation.row r)) kept
  and same_columns () =
    R.Columnar.equal (R.Relation.columnar r)
      (Checker.Reference.encode (R.Relation.schema r) (Array.of_list kept))
  in
  R.Relation.cardinality r = n
  &&
  if tuples_first then same_tuples () && same_rows () && same_columns ()
  else same_columns () && same_rows () && same_tuples ()

let outcome f = match f () with r -> Ok r | exception e -> Error e

(* The builder against the reference pass, and [of_tuples] (the builder
   behind tuples) as one more side. *)
let on_demand_agrees (keys, rows) =
  let tuples = List.map (R.Tuple.make coded_schema) rows in
  let coded () = build_coded coded_schema ~keys rows
  and general () = R.Relation.of_tuples coded_schema ~keys tuples in
  match
    ( outcome (fun () ->
          Checker.Reference.set_semantics coded_schema ~keys tuples),
      outcome coded,
      outcome general )
  with
  | Ok kept, Ok _, Ok _ ->
      List.for_all
        (fun tuples_first ->
          same_relation ~tuples_first (coded ()) kept
          && same_relation ~tuples_first (general ()) kept)
        [ true; false ]
  | ( Error (R.Relation.Key_violation a),
      Error (R.Relation.Key_violation b),
      Error (R.Relation.Key_violation c) ) ->
      a.key = b.key && b.key = c.key
      && R.Tuple.equal a.tuple b.tuple
      && R.Tuple.equal b.tuple c.tuple
  | _ -> false

(* [Relation.extend] with inherited set semantics writes the deltas into
   code columns: its rows are the rows built by hand. Each row is its
   own class; a NULL [a] is filled with "z", and a new column [d] gets
   the row's number. *)
let extend_agrees rows =
  let keyed = List.sort_uniq (fun a b -> V.compare (List.hd a) (List.hd b)) rows in
  let r = build_coded coded_schema ~keys:[ [ "id" ] ] keyed in
  let target = R.Schema.of_names [ "id"; "a"; "b"; "d" ] in
  let n = R.Relation.cardinality r in
  let derived =
    Array.init n (fun i ->
        let filled =
          if V.is_null (R.Tuple.nth (R.Relation.row r i) 1) then
            [ (1, R.Intern.code (V.string "z")) ]
          else []
        in
        (3, R.Intern.code (V.int i)) :: filled)
  in
  let expected =
    List.mapi
      (fun i t ->
        let cells = R.Tuple.to_array t in
        let a = if V.is_null cells.(1) then V.string "z" else cells.(1) in
        R.Tuple.make target [ cells.(0); a; cells.(2); V.int i ])
      (R.Relation.tuples r)
  in
  let kept =
    Checker.Reference.set_semantics target ~keys:[ [ "id" ] ] expected
  in
  let extended () =
    R.Relation.extend r target ~classes:(Array.init n Fun.id) ~derived
  in
  same_relation ~tuples_first:true (extended ()) kept
  && same_relation ~tuples_first:false (extended ()) kept
  && same_relation ~tuples_first:true
       (R.Relation.of_tuples target ~keys:[ [ "id" ] ] expected)
       kept

(* Ints and floats where rounding an int to a float loses it: around
   ±2^53, where the floats' spacing reaches 2, and around the ends of
   the int range, ±2^62, where it is 1024 (-2^62 is [min_int]; 2^62 is
   one past [max_int]). *)
let int_edge_gen =
  QCheck2.Gen.(
    let near = 1 lsl 53 and top = Float.to_int (Float.pred 0x1p62) in
    frequency
      [
        (2, int);
        (1, -3 -- 3);
        (3, map (fun d -> near + d) (-3 -- 3));
        (3, map (fun d -> -near + d) (-3 -- 3));
        (2, map (fun d -> max_int - d) (0 -- 3));
        (2, map (fun d -> min_int + d) (0 -- 3));
        (1, map (fun d -> top + d) (-1 -- 1));
      ])

let float_edge_gen =
  QCheck2.Gen.(
    let near = 0x1p53 in
    frequency
      [
        (2, float);
        (1, map (fun d -> Float.of_int d +. 0.5) (-3 -- 3));
        (3, map (fun d -> near +. Float.of_int d) (-4 -- 4));
        (3, map (fun d -> -.near +. Float.of_int d) (-4 -- 4));
        (1, return (near -. 0.5));
        ( 3,
          oneofl
            [
              0x1p62; -0x1p62; Float.pred 0x1p62; Float.succ (-0x1p62);
              -0x1p62 -. 1024.; 0x1p62 +. 1024.;
            ] );
        ( 1,
          oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.5; -0. ]
        );
      ])

let numeric_edge_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, return V.Null);
        (1, map V.bool bool);
        (1, map V.string (string_size (0 -- 3)));
        (5, map V.int int_edge_gen);
        (5, map V.float float_edge_gen);
      ])

(* [Int x] against [Float y] as exact numbers, without rounding [x]: [x]
   against [y]'s integer part as an int, then a fraction of [y] breaks a
   tie. NaN sorts below every number, as [Float.compare] puts it. *)
let cmp_int_float_reference x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let whole = Float.floor y in
    let c = Int.compare x (Float.to_int whole) in
    if c <> 0 then c else if y > whole then -1 else 0

let print_value v =
  match v with
  | V.Float f -> Printf.sprintf "Float %h" f
  | V.Int i -> Printf.sprintf "Int %d" i
  | _ -> V.to_string v

let coded_tests =
  [
    qtest ~count:500 "Code_table.classes numbers classes in first-row order"
      code_columns_gen (fun (cols, n) ->
        let got = R.Code_table.classes cols n in
        got = classes_reference cols n);
    qtest ~count:500 "a coded relation decodes the rows of_tuples holds"
      QCheck2.Gen.(pair (oneofl [ []; [ [ "id" ] ]; [ [ "id" ]; [ "a" ] ] ]) coded_rows_gen)
      on_demand_agrees;
    qtest ~count:300 "extend writes class deltas into code columns"
      coded_rows_gen extend_agrees;
    case "a coded relation decodes one row alone" (fun () ->
        let r =
          build_coded coded_schema ~keys:[ [ "id" ] ]
            [ [ vi 1; v "x"; V.Null ]; [ vi 2; V.float 1.; v "y" ] ]
        in
        Alcotest.(check bool) "row 1" true
          (R.Tuple.equal (R.Relation.row r 1)
             (R.Tuple.make coded_schema [ vi 2; V.float 1.; v "y" ]));
        Alcotest.check_raises "no row 2"
          (Invalid_argument "Relation.row: no such row") (fun () ->
            ignore (R.Relation.row r 2)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:5000
         ~name:"equal canon = non_null_eq on non-NULL values"
         ~print:QCheck2.Print.(pair print_value print_value)
         QCheck2.Gen.(pair numeric_edge_gen numeric_edge_gen)
         (fun (a, b) ->
           V.is_null a || V.is_null b
           || V.equal (R.Intern.canon a) (R.Intern.canon b)
              = V.non_null_eq a b));
    qtest ~count:2000 "Intern.canon is the value of the match code"
      numeric_edge_gen (fun v ->
        R.Intern.code (R.Intern.canon v)
        = R.Intern.match_code (R.Intern.code v));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:5000
         ~name:"cmp3 compares Int with Float exactly"
         ~print:QCheck2.Print.(pair int (fun y -> Printf.sprintf "%h" y))
         QCheck2.Gen.(pair int_edge_gen float_edge_gen)
         (fun (x, y) ->
           (* [cmp3] is read through the three-valued relations; both
              argument orders. *)
           let want = cmp_int_float_reference x y in
           let i = V.int x and f = V.float y in
           List.for_all
             (fun (rel, holds) -> rel i f = V.truth_of_bool holds)
             [ (V.lt3, want < 0); (V.eq3, want = 0); (V.gt3, want > 0) ]
           && List.for_all
                (fun (rel, holds) -> rel f i = V.truth_of_bool holds)
                [ (V.lt3, want > 0); (V.eq3, want = 0); (V.gt3, want < 0) ]));

    case "Intern: equal hashes get distinct codes, found across resizes"
      (fun () ->
        (* A birthday search over fresh strings for two with one 30-bit
           [Hashtbl.hash]: about 40k draws. *)
        let fresh = Printf.sprintf "intern-collision-%d" in
        let seen = Hashtbl.create 65536 in
        let rec search i =
          let s = fresh i in
          match Hashtbl.find_opt seen (Hashtbl.hash s) with
          | Some t -> (t, s)
          | None ->
              Hashtbl.add seen (Hashtbl.hash s) s;
              search (i + 1)
        in
        let a, b = search 0 in
        Alcotest.(check bool) "distinct strings" true (a <> b);
        Alcotest.(check int) "one hash" (Hashtbl.hash a) (Hashtbl.hash b);
        let ca = R.Intern.code (v a) and cb = R.Intern.code (v b) in
        Alcotest.(check bool) "distinct codes" true (ca <> cb);
        let found () =
          Alcotest.(check (option int)) a (Some ca) (R.Intern.find (v a));
          Alcotest.(check (option int)) b (Some cb) (R.Intern.find (v b));
          Alcotest.(check bool) "decoded" true
            (V.equal (R.Intern.value ca) (v a) && V.equal (R.Intern.value cb) (v b))
        in
        found ();
        (* The slot array is at least twice, and (past its first 1024
           slots) at most four times, the codes held; growing the pool to
           four times that many doubles it at least twice. *)
        let target = (4 * max (R.Intern.size ()) 256) + 2 in
        let i = ref 0 in
        while R.Intern.size () < target do
          ignore (R.Intern.code (v (Printf.sprintf "intern-fill-%d" !i)));
          incr i;
          if !i mod 1024 = 0 then found ()
        done;
        found ());
  ]

let pretty_tests =
  [
    case "render contains header and rows" (fun () ->
        let out = R.Pretty.render ~title:"t" abc in
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
          [ "t"; "a"; "b"; "1"; "x"; "y"; "-" ]);
    case "render aligns columns" (fun () ->
        let out = R.Pretty.render abc in
        let lines = String.split_on_char '\n' out in
        (match lines with
        | header :: rule :: _ ->
            Alcotest.(check int) "rule same width" (String.length header)
              (String.length rule)
        | _ -> Alcotest.fail "too short"));
    case "output writes what render returns" (fun () ->
        let path = Filename.temp_file "relational_test" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                R.Pretty.output ~title:"t" oc abc);
            Alcotest.(check string) "" (R.Pretty.render ~title:"t" abc)
              (In_channel.with_open_bin path In_channel.input_all)));
  ]

let () =
  Alcotest.run "relational"
    [
      ("value", value_tests);
      ("kleene", kleene_tests);
      ("value-props", value_props);
      ("schema", schema_tests);
      ("tuple", tuple_tests);
      ("relation", relation_tests);
      ("algebra", algebra_tests);
      ("algebra-laws", algebra_law_tests);
      ("key-tools", key_tools_tests);
      ("csv", csv_tests);
      ("coded", coded_tests);
      ("pretty", pretty_tests);
    ]
