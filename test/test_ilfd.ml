(* Tests for the ILFD library: the core type and parser, the symbol
   encoding, the Section 5 theory (closure, entailment three ways,
   Armstrong proofs, saturation, covers), the derivation engine that
   extends tuples and its compiled index, ILFD tables, and Propositions
   1 and 2. *)

module R = Relational
module V = R.Value
open Helpers

let case name f = Alcotest.test_case name `Quick f

let cond a x = Ilfd.condition a (v x)
let i1 = Ilfd.parse "speciality = Hunan -> cuisine = Chinese"

let def_tests =
  [
    case "parse and print round-trip" (fun () ->
        let i = Ilfd.parse "a = x & b = y -> c = z" in
        Alcotest.(check string) "" "a=x & b=y -> c=z" (Ilfd.to_string i));
    case "parse quoted value keeps spaces" (fun () ->
        let i = Ilfd.parse {|city = "St. Paul" -> state = MN|} in
        match Ilfd.antecedent i with
        | [ c ] ->
            Alcotest.(check bool) "" true (V.equal c.value (v "St. Paul"))
        | _ -> Alcotest.fail "one condition expected");
    case "parse integer values" (fun () ->
        let i = Ilfd.parse "floors = 2 -> kind = duplex" in
        match Ilfd.antecedent i with
        | [ c ] -> Alcotest.(check bool) "" true (V.equal c.value (vi 2))
        | _ -> Alcotest.fail "one condition expected");
    check_raises_any "parse without arrow fails" (fun () ->
        Ilfd.parse "a = x & b = y");
    check_raises_any "empty consequent rejected" (fun () ->
        Ilfd.make [ cond "a" "x" ] []);
    check_raises_any "conflicting antecedent rejected" (fun () ->
        Ilfd.make [ cond "a" "x"; cond "a" "y" ] [ cond "b" "z" ]);
    case "duplicate identical condition collapses" (fun () ->
        let i = Ilfd.make [ cond "a" "x"; cond "a" "x" ] [ cond "b" "z" ] in
        Alcotest.(check int) "" 1 (List.length (Ilfd.antecedent i)));
    check_raises_any "null value rejected" (fun () ->
        Ilfd.make [ Ilfd.condition "a" V.Null ] [ cond "b" "z" ]);
    case "trivial detection" (fun () ->
        Alcotest.(check bool) "" true
          (Ilfd.is_trivial (Ilfd.make [ cond "a" "x" ] [ cond "a" "x" ]));
        Alcotest.(check bool) "" false (Ilfd.is_trivial i1));
    case "antecedent_holds" (fun () ->
        let s = R.Schema.of_names [ "speciality" ] in
        Alcotest.(check bool) "" true
          (Ilfd.antecedent_holds s (R.Tuple.make s [ v "Hunan" ]) i1);
        Alcotest.(check bool) "" false
          (Ilfd.antecedent_holds s (R.Tuple.make s [ v "Gyros" ]) i1);
        Alcotest.(check bool) "null fails" false
          (Ilfd.antecedent_holds s (R.Tuple.make s [ V.Null ]) i1));
    case "satisfies: lenient vs strict on NULL consequent" (fun () ->
        let s = R.Schema.of_names [ "speciality"; "cuisine" ] in
        let t = R.Tuple.make s [ v "Hunan"; V.Null ] in
        Alcotest.(check bool) "lenient" true (Ilfd.satisfies s t i1);
        Alcotest.(check bool) "strict" false (Ilfd.satisfies ~strict:true s t i1));
    case "satisfies: violation detected" (fun () ->
        let s = R.Schema.of_names [ "speciality"; "cuisine" ] in
        let t = R.Tuple.make s [ v "Hunan"; v "Greek" ] in
        Alcotest.(check bool) "" false (Ilfd.satisfies s t i1));
    case "satisfied_by_relation" (fun () ->
        let r =
          relation [ "speciality"; "cuisine" ] []
            [ [ "Hunan"; "Chinese" ]; [ "Gyros"; "Greek" ] ]
        in
        Alcotest.(check bool) "" true (Ilfd.satisfied_by_relation r i1));
    case "attributes sorted unique" (fun () ->
        let i = Ilfd.make [ cond "b" "x"; cond "a" "y" ] [ cond "a" "y" ] in
        Alcotest.(check (list string)) "" [ "a"; "b" ] (Ilfd.attributes i));
  ]

(* ---- the rule parser against the split-based one it replaced ---- *)

(* The parser as it read lines before the one-pass rewrite, kept as the
   reference: split on "->", on '&' and ',', each piece cut out with
   [String.sub]. The one-pass parser read every line as this one did,
   rules and messages, until a quoted value became one token; it still
   does on every line whose quotes each enclose a whole quoted value. *)
module Split_parser = struct
  let parse_value raw =
    let raw = String.trim raw in
    let len = String.length raw in
    if len >= 2 && raw.[0] = '"' && raw.[len - 1] = '"' then
      V.String (String.sub raw 1 (len - 2))
    else V.of_csv_string raw

  let parse_condition raw =
    match String.index_opt raw '=' with
    | None ->
        raise
          (Ilfd.Ill_formed
             (Printf.sprintf "expected attribute = value, got %S"
                (String.trim raw)))
    | Some i ->
        let attribute = String.trim (String.sub raw 0 i) in
        let value =
          parse_value (String.sub raw (i + 1) (String.length raw - i - 1))
        in
        if attribute = "" then raise (Ilfd.Ill_formed "empty attribute name");
        if V.is_null value then
          raise
            (Ilfd.Ill_formed
               (Printf.sprintf "condition on %s has no value" attribute));
        Ilfd.condition attribute value

  let split_on_string sep s =
    let seplen = String.length sep and len = String.length s in
    let rec go start acc i =
      if i + seplen > len then List.rev (String.sub s start (len - start) :: acc)
      else if String.sub s i seplen = sep then
        go (i + seplen) (String.sub s start (i - start) :: acc) (i + seplen)
      else go start acc (i + 1)
    in
    go 0 [] 0

  (* The right-hand side's conditions are parsed first, as the old
     [make (conds lhs '&') (conds rhs ',')] did. *)
  let parse src =
    match split_on_string "->" src with
    | [ lhs; rhs ] ->
        let conds part seps =
          String.split_on_char seps part
          |> List.filter (fun s -> String.trim s <> "")
          |> List.map parse_condition
        in
        let cons = conds rhs ',' in
        let ante = conds lhs '&' in
        Ilfd.make ante cons
    | _ ->
        raise
          (Ilfd.Ill_formed
             (Printf.sprintf "expected exactly one -> in %S" src))

  (* Whether every quote of [src] encloses one whole quoted value (a
     piece's value that starts and ends with a quote and holds no
     other) as this parser cuts the line: on "->", the part before the
     first on '&', every later part on ','. A line with no quote
     qualifies. *)
  let quotes_delimit_values src =
    let quotes s =
      String.fold_left (fun n ch -> if ch = '"' then n + 1 else n) 0 s
    in
    let quoted raw =
      let raw = String.trim raw in
      let len = String.length raw in
      len >= 2 && raw.[0] = '"' && raw.[len - 1] = '"' && quotes raw = 2
    in
    let values sep part =
      List.filter_map
        (fun piece ->
          Option.map
            (fun i -> String.sub piece (i + 1) (String.length piece - i - 1))
            (String.index_opt piece '='))
        (String.split_on_char sep part)
    in
    let values =
      match split_on_string "->" src with
      | lhs :: rest -> values '&' lhs @ List.concat_map (values ',') rest
      | [] -> []
    in
    quotes src = 2 * List.length (List.filter quoted values)
end

(* Rule lines whose every quote encloses a whole quoted value: bare
   values hold no quote and no separator, and a quoted value's text holds
   no quote and nothing the split-based parser cuts on its side ('&' on
   the left, ',' on the right, "->"). *)
let quoted_line_gen =
  QCheck2.Gen.(
    let space = oneofl [ ""; " "; "  "; "\t" ] in
    let text forbidden =
      map (String.concat "")
        (list_size (0 -- 4)
           (oneofl
              (List.filter
                 (fun p -> not (List.mem p forbidden))
                 [ "&"; ","; "="; " "; "x"; "007"; "true"; "null"; "2.5"; "-" ])))
    in
    let cond attr sep =
      let* quoted = bool in
      let* value =
        if quoted then map (fun t -> "\"" ^ t ^ "\"") (text [ sep ])
        else oneofl [ "x"; "Hunan"; "1"; "2.5"; "true"; "St.Paul" ]
      in
      let* s1 = space and* s2 = space and* s3 = space and* s4 = space in
      return (s1 ^ attr ^ s2 ^ "=" ^ s3 ^ value ^ s4)
    in
    let* ante = list_size (0 -- 3) (oneofl [ "a"; "b"; "c" ]) in
    let* cons = list_size (1 -- 2) (oneofl [ "d"; "e" ]) in
    let* ante = flatten_l (List.map (fun a -> cond a "&") (List.sort_uniq compare ante)) in
    let* cons = flatten_l (List.map (fun a -> cond a ",") (List.sort_uniq compare cons)) in
    return (String.concat "&" ante ^ "->" ^ String.concat "," cons))

let rule_line_gen =
  QCheck2.Gen.(
    let fragment =
      frequency
        [
          (4, oneofl [ "a"; "b"; "cuisine"; "x"; "Hunan"; "1"; "2.5"; "1.0" ]);
          (4, oneofl [ " = "; "="; " & "; "&"; ", "; ","; " -> "; "->" ]);
          (2, oneofl [ " "; "\t"; ""; "-"; ">"; "\""; "null"; "NULL"; "\"q r\"" ]);
          (1, map (String.make 1) printable);
        ]
    in
    let well_formed =
      let cond = map2 (fun a x -> a ^ " = " ^ x) (oneofl [ "a"; "b"; "c" ])
          (oneofl [ "x"; "1"; "1.0"; "\"St. Paul\""; "true" ]) in
      let* ante = list_size (0 -- 3) cond and* cons = list_size (0 -- 2) cond in
      return (String.concat " & " ante ^ " -> " ^ String.concat ", " cons)
    in
    frequency
      [
        (2, well_formed);
        (3, map (String.concat "") (list_size (0 -- 14) fragment));
        (2, quoted_line_gen);
      ])

let parse_outcome parse line =
  match parse line with
  | rule -> Ok rule
  | exception Ilfd.Ill_formed message -> Error message

(* Rules over every kind of value a rule may hold: ints and floats at
   their edges, booleans, and strings made of separators, quotes, spaces,
   digits and the words a bare value reads as something else. *)
let round_trip_rule_gen =
  QCheck2.Gen.(
    let piece =
      oneofl
        [ "&"; ","; "->"; "\""; "="; " "; "\t"; "007"; "1"; "2.5"; "1e5";
          "0x1F"; "true"; "TRUE"; "false"; "null"; "nan"; "inf"; "x";
          "Smith"; "-"; ">"; "#"; "\n" ]
    in
    let value =
      frequency
        [
          (4, map (fun ps -> V.String (String.concat "" ps)) (list_size (0 -- 4) piece));
          (1, map V.int (oneof [ int; int_range (-10) 10; oneofl [ min_int; max_int ] ]));
          ( 1,
            map V.float
              (oneof
                 [ float;
                   oneofl
                     [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.1 +. 0.2;
                       1e300; 5e-324; 123456789012345678.; 3.; 0x1p53 ] ]) );
          (1, map V.bool bool);
        ]
    in
    let conds attrs =
      let* values = list_repeat (List.length attrs) value in
      let* keep = list_repeat (List.length attrs) bool in
      return
        (List.concat
           (List.map2
              (fun (a, k) x -> if k then [ Ilfd.condition a x ] else [])
              (List.combine attrs keep) values))
    in
    let* ante = conds [ "a"; "b"; "c" ] in
    let* cons = conds [ "d"; "e" ] in
    let* first = value in
    return (Ilfd.make ante (Ilfd.condition "f" first :: cons)))

let parser_tests =
  [
    (* Rules and messages agree wherever every quote encloses a whole
       quoted value; elsewhere a quoted value is one token where the
       reference cut it. *)
    qtest ~count:3000 "parse = the split-based parser, rules and messages"
      rule_line_gen (fun line ->
        let whole = Split_parser.quotes_delimit_values line in
        match (parse_outcome Ilfd.parse line, parse_outcome Split_parser.parse line) with
        | Ok a, Ok b -> Ilfd.equal a b || not whole
        | Error a, Error b -> String.equal a b || not whole
        | Error _, Ok _ | Ok _, Error _ -> not whole);
    case "both sides bad: the right-hand side's error is reported" (fun () ->
        match Ilfd.parse "lhsbad -> rhsbad" with
        | _ -> Alcotest.fail "expected Ill_formed"
        | exception Ilfd.Ill_formed message ->
            Alcotest.(check string) "message"
              "expected attribute = value, got \"rhsbad\"" message);
    case "a quoted value is one token" (fun () ->
        let values line =
          let i = Ilfd.parse line in
          List.map
            (fun (c : Ilfd.condition) -> (c.attribute, V.to_string c.value))
            (Ilfd.antecedent i @ Ilfd.consequent i)
        in
        Alcotest.(check (list (pair string string))) "& inside quotes"
          [ ("name", "Smith & Sons"); ("city", "Paris") ]
          (values {|name = "Smith & Sons" -> city = Paris|});
        Alcotest.(check (list (pair string string))) "-> and , inside quotes"
          [ ("a", "x->y"); ("place", "Rome, Italy") ]
          (values {|a = "x->y" -> place = "Rome, Italy"|});
        Alcotest.(check (list (pair string string))) "a doubled quote is one"
          [ ("a", {|say "hi"|}); ("b", {|"|}) ]
          (values {|a = "say ""hi""" -> b = """"|});
        Alcotest.(check (list (pair string string))) "a quote inside a bare value"
          [ ("a", {|x"y|}); ("b", "z") ]
          (values {|a = x"y -> b = z|});
        let rejected line message =
          match Ilfd.parse line with
          | _ -> Alcotest.failf "%s: expected Ill_formed" line
          | exception Ilfd.Ill_formed m -> Alcotest.(check string) line message m
        in
        rejected {|a = "open -> b = c|} {|unterminated quoted value "open -> b = c|};
        rejected {|a = "x" y -> b = c|} {|unexpected text after the quoted value "x"|});
    case "a value prints quoted only when it must" (fun () ->
        List.iter
          (fun rule ->
            Alcotest.(check bool) (Ilfd.to_string rule) false
              (String.contains (Ilfd.to_string rule) '"'))
          Workload.Paper_data.ilfds_i1_i8;
        let c a x = Ilfd.condition a x in
        Alcotest.(check string) "awkward strings"
          {|a="007" & b="true" & c=" padded" & d="null" & e="Smith & Sons" -> f=Smith & Sons, g="Rome, Italy", h=""""|}
          (Ilfd.to_string
             (Ilfd.make
                [ c "a" (v "007"); c "b" (v "true"); c "c" (v " padded");
                  c "d" (v "null"); c "e" (v "Smith & Sons") ]
                [ c "f" (v "Smith & Sons"); c "g" (v "Rome, Italy");
                  c "h" (v {|"|}) ]));
        Alcotest.(check string) "numbers"
          "a=7 & b=0.1 & c=0.30000000000000004 -> d=true"
          (Ilfd.to_string
             (Ilfd.make
                [ c "a" (vi 7); c "b" (V.float 0.1); c "c" (V.float (0.1 +. 0.2)) ]
                [ c "d" (V.bool true) ])));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000
         ~name:"parse (to_string r) = r over every kind of value"
         ~print:Ilfd.to_string round_trip_rule_gen (fun rule ->
           Ilfd.equal (Ilfd.parse (Ilfd.to_string rule)) rule));
  ]

let encode_tests =
  [
    qtest "symbol/decode round-trip" Helpers.condition_gen (fun c ->
        match Ilfd.Encode.decode (Ilfd.Encode.symbol c) with
        | Some c' ->
            String.equal c.attribute c'.attribute && V.equal c.value c'.value
        | None -> false);
    case "int values round-trip" (fun () ->
        let c = Ilfd.condition "n" (vi 42) in
        match Ilfd.Encode.decode (Ilfd.Encode.symbol c) with
        | Some c' -> Alcotest.(check bool) "" true (V.equal c'.value (vi 42))
        | None -> Alcotest.fail "decode failed");
    qtest "clause round-trip" Helpers.ilfd_gen (fun i ->
        match Ilfd.Encode.ilfd_of_clause (Ilfd.Encode.clause i) with
        | Some i' -> Ilfd.equal i i'
        | None -> false);
    case "distinct conditions get distinct symbols" (fun () ->
        let s1 = Ilfd.Encode.symbol (cond "a" "x") in
        let s2 = Ilfd.Encode.symbol (cond "a" "y") in
        let s3 = Ilfd.Encode.symbol (Ilfd.condition "a" (vi 1)) in
        let s4 = Ilfd.Encode.symbol (Ilfd.condition "a" (v "1")) in
        Alcotest.(check bool) "" false (String.equal s1 s2);
        Alcotest.(check bool) "type-tagged" false (String.equal s3 s4));
  ]

let paper_ilfds = Workload.Paper_data.ilfds_i1_i8
let i9 = Workload.Paper_data.ilfd_i9

let theory_tests =
  [
    case "closure of I5's antecedent includes cuisine" (fun () ->
        let start = [ cond "name" "TwinCities"; cond "street" "Co.B2" ] in
        let closure = Ilfd.Theory.closure paper_ilfds start in
        let has attr value =
          List.exists
            (fun (c : Ilfd.condition) ->
              String.equal c.attribute attr && V.equal c.value (v value))
            closure
        in
        Alcotest.(check bool) "speciality" true (has "speciality" "Hunan");
        Alcotest.(check bool) "cuisine" true (has "cuisine" "Chinese"));
    case "I9 is entailed by I1-I8" (fun () ->
        Alcotest.(check bool) "" true (Ilfd.Theory.entails paper_ilfds i9));
    case "converse not entailed" (fun () ->
        let converse = Ilfd.parse "speciality = Gyros -> name = It'sGreek" in
        Alcotest.(check bool) "" false
          (Ilfd.Theory.entails paper_ilfds converse));
    case "I9 has an Armstrong proof" (fun () ->
        match Ilfd.Theory.prove paper_ilfds i9 with
        | Some proof ->
            Alcotest.(check bool) "checkable" true
              (Proplogic.Armstrong.check
                 (Ilfd.Encode.clauses paper_ilfds)
                 proof
                 (Ilfd.Encode.clause i9))
        | None -> Alcotest.fail "no proof");
    qtest ~count:50 "three decision procedures agree"
      QCheck2.Gen.(pair Helpers.ilfds_gen Helpers.ilfd_gen)
      (fun (f, goal) ->
        let a = Ilfd.Theory.entails f goal in
        let b = Ilfd.Theory.entails_semantic f goal in
        let c = Ilfd.Theory.entails_dpll f goal in
        a = b && b = c);
    case "saturate contains I9" (fun () ->
        Alcotest.(check bool) "" true
          (List.exists (Ilfd.equal i9) (Ilfd.Theory.saturate paper_ilfds)));
    qtest ~count:30 "saturation only adds entailed rules" Helpers.ilfds_gen
      (fun f ->
        List.for_all (Ilfd.Theory.entails f) (Ilfd.Theory.saturate f));
    qtest ~count:30 "minimal cover is equivalent" Helpers.ilfds_gen (fun f ->
        Ilfd.Theory.equivalent f (Ilfd.Theory.minimal_cover f));
    case "redundant rule detected" (fun () ->
        Alcotest.(check bool) "" true
          (Ilfd.Theory.redundant (paper_ilfds @ [ i9 ]) i9));
    case "derived_ilfds of I5 include cuisine" (fun () ->
        let derived = Ilfd.Theory.derived_ilfds paper_ilfds in
        let expected =
          Ilfd.parse
            "name = TwinCities & street = Co.B2 -> cuisine = Chinese"
        in
        Alcotest.(check bool) "" true
          (List.exists (Ilfd.equal expected) derived));
  ]

let apply_tests =
  let target = R.Schema.of_names [ "speciality"; "cuisine" ] in
  let narrow = R.Schema.of_names [ "speciality" ] in
  [
    case "single-step derivation" (fun () ->
        let t = R.Tuple.make narrow [ v "Hunan" ] in
        match Ilfd.Apply.extend_tuple narrow t ~target [ i1 ] with
        | Ok (t', used) ->
            Alcotest.(check string) "" "Chinese"
              (V.to_string (R.Tuple.get target t' "cuisine"));
            Alcotest.(check int) "" 1 (List.length used)
        | Error _ -> Alcotest.fail "conflict unexpected");
    case "underivable defaults to NULL" (fun () ->
        let t = R.Tuple.make narrow [ v "Unknown" ] in
        match Ilfd.Apply.extend_tuple narrow t ~target [ i1 ] with
        | Ok (t', used) ->
            Alcotest.(check bool) "" true
              (V.is_null (R.Tuple.get target t' "cuisine"));
            Alcotest.(check int) "" 0 (List.length used)
        | Error _ -> Alcotest.fail "conflict unexpected");
    case "chained derivation through scratch attribute" (fun () ->
        (* a -> b (intermediate, not in target), b -> c. *)
        let rules =
          [ Ilfd.parse "a = 1 -> b = 2"; Ilfd.parse "b = 2 -> c = 3" ]
        in
        let src = R.Schema.of_names [ "a" ] in
        let tgt = R.Schema.of_names [ "a"; "c" ] in
        match
          Ilfd.Apply.extend_tuple src (R.Tuple.make src [ vi 1 ]) ~target:tgt
            rules
        with
        | Ok (t', _) ->
            Alcotest.(check string) "" "3"
              (V.to_string (R.Tuple.get tgt t' "c"))
        | Error _ -> Alcotest.fail "conflict unexpected");
    case "cyclic rules terminate" (fun () ->
        let rules =
          [ Ilfd.parse "a = 1 -> b = 2"; Ilfd.parse "b = 2 -> a = 1" ]
        in
        let src = R.Schema.of_names [ "c" ] in
        let tgt = R.Schema.of_names [ "c"; "a"; "b" ] in
        match
          Ilfd.Apply.extend_tuple src (R.Tuple.make src [ vi 9 ]) ~target:tgt
            rules
        with
        | Ok (t', _) ->
            Alcotest.(check bool) "" true
              (V.is_null (R.Tuple.get tgt t' "a"))
        | Error _ -> Alcotest.fail "conflict unexpected");
    case "first rule wins under cut semantics" (fun () ->
        let rules =
          [ Ilfd.parse "a = 1 -> b = first"; Ilfd.parse "a = 1 -> b = second" ]
        in
        let src = R.Schema.of_names [ "a" ] in
        let tgt = R.Schema.of_names [ "a"; "b" ] in
        match
          Ilfd.Apply.extend_tuple src (R.Tuple.make src [ vi 1 ]) ~target:tgt
            rules
        with
        | Ok (t', _) ->
            Alcotest.(check string) "" "first"
              (V.to_string (R.Tuple.get tgt t' "b"))
        | Error _ -> Alcotest.fail "conflict unexpected");
    case "conflict detected in Check_conflicts mode" (fun () ->
        let rules =
          [ Ilfd.parse "a = 1 -> b = first"; Ilfd.parse "a = 1 -> b = second" ]
        in
        let src = R.Schema.of_names [ "a" ] in
        let tgt = R.Schema.of_names [ "a"; "b" ] in
        match
          Ilfd.Apply.extend_tuple ~mode:Ilfd.Apply.Check_conflicts src
            (R.Tuple.make src [ vi 1 ]) ~target:tgt rules
        with
        | Ok _ -> Alcotest.fail "expected conflict"
        | Error c -> Alcotest.(check string) "" "b" c.attribute);
    case "agreeing rules are not a conflict" (fun () ->
        let rules =
          [ Ilfd.parse "a = 1 -> b = same"; Ilfd.parse "a = 1 -> b = same" ]
        in
        let src = R.Schema.of_names [ "a" ] in
        let tgt = R.Schema.of_names [ "a"; "b" ] in
        Alcotest.(check bool) "" true
          (Result.is_ok
             (Ilfd.Apply.extend_tuple ~mode:Ilfd.Apply.Check_conflicts src
                (R.Tuple.make src [ vi 1 ]) ~target:tgt rules)));
    case "existing values are never overwritten" (fun () ->
        let src = R.Schema.of_names [ "speciality"; "cuisine" ] in
        let t = R.Tuple.make src [ v "Hunan"; v "Fusion" ] in
        match Ilfd.Apply.extend_tuple src t ~target:src [ i1 ] with
        | Ok (t', used) ->
            Alcotest.(check string) "" "Fusion"
              (V.to_string (R.Tuple.get src t' "cuisine"));
            Alcotest.(check int) "" 0 (List.length used)
        | Error _ -> Alcotest.fail "conflict unexpected");
    case "derivable_attributes includes chained" (fun () ->
        let rules =
          [ Ilfd.parse "a = 1 -> b = 2"; Ilfd.parse "b = 2 -> c = 3" ]
        in
        let src = R.Schema.of_names [ "a" ] in
        Alcotest.(check (list string)) "" [ "b"; "c" ]
          (Ilfd.Apply.derivable_attributes src rules));
    qtest ~count:20 "extension is idempotent"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 10; seed }
        in
        let target =
          Entity_id.Identify.extension_schema inst.r inst.key
        in
        let compiled = Ilfd.Apply.compile inst.ilfds in
        let once = Ilfd.Fixpoint.extend_relation inst.r ~target compiled in
        let twice = Ilfd.Fixpoint.extend_relation once ~target compiled in
        R.Relation.equal once twice);
    case "extend_relation keeps declared keys" (fun () ->
        let r = relation [ "speciality" ] [ [ "speciality" ] ] [ [ "Hunan" ] ] in
        let out = Ilfd.Fixpoint.extend_relation r ~target (Ilfd.Apply.compile [ i1 ]) in
        Alcotest.(check (list (list string))) ""
          [ [ "speciality" ] ]
          (R.Relation.keys out));
  ]

(* ---- the compiled index ---- *)

(* The index by hand: per consequent attribute, append each rule in
   family order, counting only a rule's first condition per attribute. *)
let naive_consequents rules =
  let by_attr = ref [] in
  List.iter
    (fun rule ->
      let seen = ref [] in
      List.iter
        (fun (c : Ilfd.condition) ->
          if not (List.mem c.attribute !seen) then begin
            seen := c.attribute :: !seen;
            let existing =
              Option.value (List.assoc_opt c.attribute !by_attr) ~default:[]
            in
            by_attr :=
              (c.attribute, existing @ [ (rule, c.value) ])
              :: List.remove_assoc c.attribute !by_attr
          end)
        (Ilfd.consequent rule))
    rules;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !by_attr

(* Rules over four attributes, so families share consequent attributes,
   with up to three consequent conditions that may repeat an attribute.
   A rule gives one value per attribute, so [Ilfd.make] accepts the
   repeat (and folds it into one condition). *)
let repeating_ilfd_gen =
  QCheck2.Gen.(
    let* ante = Helpers.conditions_gen 2 in
    let* attrs = list_size (1 -- 3) Helpers.attr_gen in
    let* values = list_repeat 4 Helpers.value_gen in
    let value_of a =
      v (List.nth values (Char.code a.[0] - Char.code 'a'))
    in
    return
      (Ilfd.make ante (List.map (fun a -> Ilfd.condition a (value_of a)) attrs)))

let same_index a b =
  List.equal
    (fun (attr, rules) (attr', rules') ->
      String.equal attr attr'
      && List.equal
           (fun (rule, value) (rule', value') ->
             rule == rule' && V.equal value value')
           rules rules')
    a b

let conflict_witness (c : Ilfd.Apply.conflict) =
  (c.attribute, V.to_string c.first, V.to_string c.second, c.rule)

let compiled_tests =
  [
    qtest ~count:200 "compiled index keeps family order per attribute"
      QCheck2.Gen.(list_size (0 -- 40) repeating_ilfd_gen)
      (fun rules ->
        same_index
          (Ilfd.Apply.consequents (Ilfd.Apply.compile rules))
          (naive_consequents rules));
    case "restored and created states answer an insert alike" (fun () ->
        (* Check_conflicts mode: one S insert derives a match, the other
           hits two disagreeing rules; a state restored from a dump holds
           its own compiled family and must give the same answers. *)
        let rules =
          List.map Ilfd.parse
            [
              "speciality = Gyros -> cuisine = Greek";
              "speciality = Hunan -> cuisine = Chinese";
              "speciality = Hunan -> cuisine = Thai";
            ]
        in
        let r =
          relation [ "name"; "cuisine" ] [ [ "name"; "cuisine" ] ]
            [ [ "It'sGreek"; "Greek" ] ]
        and s = relation [ "name"; "speciality" ] [ [ "name"; "speciality" ] ] [] in
        let fresh =
          Entity_id.Incremental.create ~mode:Ilfd.Apply.Check_conflicts ~r ~s
            ~key:(Entity_id.Extended_key.make [ "name"; "cuisine" ])
            rules
        in
        let restored =
          Entity_id.Incremental.restore ~ilfds:rules
            (Entity_id.Incremental.dump fresh)
        in
        let s_schema = R.Relation.schema s in
        let keys =
          List.map (fun (e : Entity_id.Matching_table.entry) ->
              (R.Tuple.to_string e.r_key, R.Tuple.to_string e.s_key))
        in
        let insert t row =
          match Entity_id.Incremental.insert_s t (R.Tuple.make s_schema row) with
          | entries ->
              Ok
                ( keys entries,
                  keys
                    (Entity_id.Matching_table.entries
                       (Entity_id.Incremental.matching_table t)) )
          | exception Ilfd.Apply.Conflict_found c -> Error (conflict_witness c)
        in
        let answers t =
          [ insert t [ v "It'sGreek"; v "Gyros" ]; insert t [ v "Wok"; v "Hunan" ] ]
        in
        let want = answers fresh and got = answers restored in
        (match want with
        | [ Ok ([ _ ], _); Error ("cuisine", "Chinese", "Thai", _) ] -> ()
        | _ -> Alcotest.fail "expected one match, then a cuisine conflict");
        Alcotest.(check bool) "same answers" true (want = got));
  ]

let table_tests =
  [
    case "make + lookup" (fun () ->
        let t =
          Ilfd.Table.make ~inputs:[ "speciality" ] ~output:"cuisine"
            [ [ v "Hunan"; v "Chinese" ]; [ v "Gyros"; v "Greek" ] ]
        in
        Alcotest.(check (option string)) "" (Some "Chinese")
          (Option.map V.to_string
             (Ilfd.Table.lookup t [ ("speciality", v "Hunan") ]));
        Alcotest.(check (option string)) "" None
          (Option.map V.to_string
             (Ilfd.Table.lookup t [ ("speciality", v "Dosa") ])));
    check_raises_any "contradictory rows rejected" (fun () ->
        Ilfd.Table.make ~inputs:[ "a" ] ~output:"b"
          [ [ v "x"; v "1" ]; [ v "x"; v "2" ] ]);
    check_raises_any "output repeating input rejected" (fun () ->
        Ilfd.Table.make ~inputs:[ "a" ] ~output:"a" [ [ v "x"; v "y" ] ]);
    case "of_ilfds groups paper I1-I4 into IM(speciality;cuisine)" (fun () ->
        let uniform = List.filteri (fun i _ -> i < 4) paper_ilfds in
        match Ilfd.Table.of_ilfds uniform with
        | [ t ] ->
            Alcotest.(check (list string)) "" [ "speciality" ] t.inputs;
            Alcotest.(check string) "" "cuisine" t.output;
            Alcotest.(check int) "" 4
              (R.Relation.cardinality (Ilfd.Table.to_relation t))
        | ts -> Alcotest.fail (Printf.sprintf "%d tables" (List.length ts)));
    case "of_ilfds splits mixed shapes" (fun () ->
        (* {spec}->cuisine, {name,street}->spec, {street}->county,
           {name,county}->spec: four distinct shapes. *)
        Alcotest.(check int) "" 4
          (List.length (Ilfd.Table.of_ilfds paper_ilfds)));
    case "to_ilfds round-trips" (fun () ->
        let uniform = List.filteri (fun i _ -> i < 4) paper_ilfds in
        match Ilfd.Table.of_ilfds uniform with
        | [ t ] ->
            let back = Ilfd.Table.to_ilfds t in
            Alcotest.(check bool) "" true
              (List.for_all
                 (fun i -> List.exists (Ilfd.equal i) back)
                 uniform)
        | _ -> Alcotest.fail "one table expected");
    case "of_relation projects" (fun () ->
        let r =
          relation [ "speciality"; "cuisine"; "junk" ] []
            [ [ "Hunan"; "Chinese"; "zz" ] ]
        in
        let t = Ilfd.Table.of_relation ~inputs:[ "speciality" ]
            ~output:"cuisine" r in
        Alcotest.(check int) "" 1
          (R.Relation.cardinality (Ilfd.Table.to_relation t)));
  ]

let props_tests =
  [
    case "Prop 1: ILFD to distinctness rule shape" (fun () ->
        match Ilfd.Props.distinctness_rules_of_ilfd i1 with
        | [ rule ] ->
            Alcotest.(check int) "" 2 (List.length rule.Rules.Distinctness.atoms)
        | _ -> Alcotest.fail "one rule expected");
    case "Prop 1: round-trip" (fun () ->
        match Ilfd.Props.distinctness_rules_of_ilfd i1 with
        | [ rule ] -> (
            match Ilfd.Props.ilfd_of_distinctness_rule rule with
            | Some back -> Alcotest.(check bool) "" true (Ilfd.equal back i1)
            | None -> Alcotest.fail "no ILFD back")
        | _ -> Alcotest.fail "one rule expected");
    check_raises_any "Prop 1 rejects empty antecedent" (fun () ->
        Ilfd.Props.distinctness_rules_of_ilfd
          (Ilfd.make [] [ cond "b" "x" ]));
    case "fd_holds instance check" (fun () ->
        let ok =
          relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "1"; "x" ]; [ "2"; "y" ] ]
        in
        let bad =
          relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "1"; "y" ] ]
        in
        Alcotest.(check bool) "" true (Ilfd.Props.fd_holds ok [ "a" ] [ "b" ]);
        Alcotest.(check bool) "" false (Ilfd.Props.fd_holds bad [ "a" ] [ "b" ]));
    case "Prop 2: covering family implies FD" (fun () ->
        let r =
          relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "2"; "y" ] ]
        in
        match Ilfd.Props.covering_family r [ "a" ] [ "b" ] with
        | Some family ->
            Alcotest.(check int) "" 2 (List.length family);
            Alcotest.(check bool) "covers" true
              (Ilfd.Props.family_covers r [ "a" ] family);
            Alcotest.(check bool) "each holds" true
              (List.for_all (Ilfd.satisfied_by_relation r) family);
            Alcotest.(check bool) "fd holds" true
              (Ilfd.Props.fd_holds r [ "a" ] [ "b" ])
        | None -> Alcotest.fail "family expected");
    case "Prop 2: no family when FD broken" (fun () ->
        let bad = relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "1"; "y" ] ] in
        Alcotest.(check bool) "" true
          (Ilfd.Props.covering_family bad [ "a" ] [ "b" ] = None));
    case "family_covers detects gaps" (fun () ->
        let r = relation [ "a"; "b" ] [] [ [ "1"; "x" ]; [ "2"; "y" ] ] in
        let partial = [ Ilfd.parse "a = 1 -> b = x" ] in
        Alcotest.(check bool) "" false
          (Ilfd.Props.family_covers r [ "a" ] partial));
  ]

let () =
  Alcotest.run "ilfd"
    [
      ("def", def_tests);
      ("parser", parser_tests);
      ("encode", encode_tests);
      ("theory", theory_tests);
      ("apply", apply_tests);
      ("index", compiled_tests);
      ("table", table_tests);
      ("props", props_tests);
    ]
