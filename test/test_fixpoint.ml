(* Tests for the compiled ILFD fixpoint, one trie evaluator per
   derivation class: byte-identical agreement with the per-tuple
   recursive engine across generated scenarios (including
   conflicting-rule corruptions), exactness of First_rule semantics in
   demand order, the recursive fallback on cyclic families, the intern
   pool's match-class contract, and the covering-bucket blocking
   short-cut. *)

module R = Relational
module V = R.Value
module E = Entity_id
open Helpers

let case name f = Alcotest.test_case name `Quick f

let extension_agrees (sc : Checker.Scenario.t) rel =
  let target = E.Identify.extension_schema rel sc.key in
  let fixpoint = Ilfd.Fixpoint.extend_relation rel ~target
      (Ilfd.Apply.compile sc.ilfds)
  in
  let recursive = Checker.Reference.extend_relation rel ~target sc.ilfds in
  R.Relation.equal fixpoint recursive

let agreement_tests =
  [
    case "fixpoint = recursive on generated scenarios" (fun () ->
        (* The scenario generator covers the interesting terrain: NULLed
           attributes, typos, homonyms, duplicate injection, swapped
           fields and — crucially — appended conflicting ILFDs, where
           naive round-based chasing diverges from first-rule-wins and
           only the recursive engine's demand order agrees. *)
        for seed = 1 to 40 do
          let sc = Checker.Scenario.generate ~seed in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d R agrees" seed)
            true (extension_agrees sc sc.r);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d S agrees" seed)
            true (extension_agrees sc sc.s)
        done);
    case "first-rule wins across strata under conflicting rules" (fun () ->
        (* a has two rules that disagree when both fire: b=1 -> a=1
           (needs derived b) and c=1 -> a=2 (fires on a base fact). A
           naive chase assigns a=2 in round one, before b exists; the
           recursive engine derives b first and takes a=1. The evaluator
           must reproduce the recursive answer. *)
        let ilfds =
          [
            Ilfd.make1 [ Ilfd.condition "b" (vi 1) ] "a" (vi 1);
            Ilfd.make1 [ Ilfd.condition "c" (vi 1) ] "a" (vi 2);
            Ilfd.make1 [ Ilfd.condition "c" (vi 1) ] "b" (vi 1);
          ]
        in
        let r =
          R.Relation.create (R.Schema.of_names [ "id"; "c" ]) ~keys:[ [ "id" ] ]
            [ [ vi 7; vi 1 ] ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "a"; "b" ])
        in
        Alcotest.(check bool)
          "family compiles" true
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target ilfds);
        let out =
          Ilfd.Fixpoint.extend_relation r ~target (Ilfd.Apply.compile ilfds)
        in
        let a = R.Tuple.get target (List.hd (R.Relation.tuples out)) "a" in
        Alcotest.(check bool) "a = 1 (recursive answer)" true
          (V.equal a (vi 1));
        Alcotest.(check bool) "byte-identical to recursive" true
          (R.Relation.equal out
             (Checker.Reference.extend_relation r ~target ilfds)));
    case "cyclic families fall back and still agree" (fun () ->
        let ilfds =
          [
            Ilfd.make1 [ Ilfd.condition "a" (vi 1) ] "b" (vi 1);
            Ilfd.make1 [ Ilfd.condition "b" (vi 1) ] "a" (vi 1);
          ]
        in
        let r =
          R.Relation.create (R.Schema.of_names [ "id"; "a" ]) ~keys:[ [ "id" ] ]
            [ [ vi 1; vi 1 ]; [ vi 2; V.null ] ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "b" ])
        in
        Alcotest.(check bool)
          "not supported" false
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target ilfds);
        Alcotest.(check bool) "fallback agrees" true
          (R.Relation.equal
             (Ilfd.Fixpoint.extend_relation r ~target (Ilfd.Apply.compile ilfds))
             (Checker.Reference.extend_relation r ~target ilfds)));
    case "Check_conflicts witnesses match the serial reference" (fun () ->
        (* The production extender runs Check_conflicts per derivation
           class, in first-row order; it must raise the reference's
           first-row witness, or return its rows. *)
        let outcome f =
          match f () with
          | rel -> Ok rel
          | exception Ilfd.Apply.Conflict_found c -> Error c
        in
        let agree label rel ~target ilfds =
          let reference =
            outcome (fun () ->
                Checker.Reference.extend_relation ~mode:Ilfd.Apply.Check_conflicts
                  rel ~target ilfds)
          in
          match
            ( reference,
              outcome (fun () ->
                  Ilfd.Fixpoint.extend_relation
                    ~mode:Ilfd.Apply.Check_conflicts rel ~target
                    (Ilfd.Apply.compile ilfds)) )
          with
          | Ok a, Ok b ->
              Alcotest.(check bool) (label ^ " rows") true
                (R.Relation.equal a b)
          | Error a, Error b ->
              Alcotest.(check string) (label ^ " attribute") a.attribute
                b.attribute;
              Alcotest.(check bool) (label ^ " values") true
                (V.equal a.first b.first && V.equal a.second b.second);
              Alcotest.(check bool) (label ^ " rule") true
                (Ilfd.equal a.rule b.rule)
          | Ok _, Error _ -> Alcotest.fail (label ^ ": spurious conflict")
          | Error _, Ok _ -> Alcotest.fail (label ^ ": missed conflict")
        in
        for seed = 1 to 40 do
          let sc = Checker.Scenario.generate ~seed in
          List.iter
            (fun (side, rel) ->
              agree
                (Printf.sprintf "seed %d %s" seed side)
                rel
                ~target:(E.Identify.extension_schema rel sc.key)
                sc.ilfds)
            [ ("R", sc.r); ("S", sc.s) ]
        done;
        (* A cyclic family: b is derivable two ways, and they disagree
           from the second row on (rows 2 and 3 share a class). *)
        let ilfds =
          [
            Ilfd.make1 [ Ilfd.condition "a" (vi 1) ] "b" (vi 1);
            Ilfd.make1 [ Ilfd.condition "b" (vi 1) ] "a" (vi 1);
            Ilfd.make1 [ Ilfd.condition "c" (vi 1) ] "b" (vi 2);
          ]
        in
        let r =
          R.Relation.create
            (R.Schema.of_names [ "id"; "a"; "c" ])
            ~keys:[ [ "id" ] ]
            [
              [ vi 1; V.null; vi 1 ];
              [ vi 2; vi 1; vi 1 ];
              [ vi 3; vi 1; vi 1 ];
              [ vi 4; vi 1; V.null ];
            ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "b" ])
        in
        (match
           Ilfd.Fixpoint.extend_relation ~mode:Ilfd.Apply.Check_conflicts r
             ~target (Ilfd.Apply.compile ilfds)
         with
        | _ -> Alcotest.fail "cyclic family: expected a conflict"
        | exception Ilfd.Apply.Conflict_found c ->
            Alcotest.(check bool) "cyclic witness b: 1 vs 2" true
              (c.attribute = "b" && V.equal c.first (vi 1)
              && V.equal c.second (vi 2)));
        agree "cyclic" r ~target ilfds;
        agree "cyclic, conflict-free rows"
          (R.Relation.create (R.Relation.schema r) ~keys:[ [ "id" ] ]
             [ [ vi 1; V.null; vi 1 ]; [ vi 4; vi 1; V.null ] ])
          ~target ilfds);
    case "ambiguous numeric rule values disqualify the plan" (fun () ->
        (* 2^53 + 1 has no exact float partner: hash matching on a
           canonical representative is unsound there, so the family
           must take the recursive path (and still agree). *)
        let big = 9007199254740993 in
        let ilfds =
          [ Ilfd.make1 [ Ilfd.condition "n" (vi big) ] "flag" (v "big") ]
        in
        let r =
          R.Relation.create (R.Schema.of_names [ "id"; "n" ]) ~keys:[ [ "id" ] ]
            [ [ vi 1; vi big ]; [ vi 2; vi 3 ] ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "flag" ])
        in
        Alcotest.(check bool)
          "not supported" false
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target ilfds);
        Alcotest.(check bool) "fallback agrees" true
          (R.Relation.equal
             (Ilfd.Fixpoint.extend_relation r ~target (Ilfd.Apply.compile ilfds))
             (Checker.Reference.extend_relation r ~target ilfds)));
  ]

(* Set semantics through the extension. With no declared key, a rule
   that fills a NULL can make two rows equal, so the extension must
   still deduplicate; with a declared key, the rows stay distinct by
   construction and the coded view is inherited from the source. *)
let extension_tests =
  let family =
    Ilfd.Apply.compile [ Ilfd.make1 [ Ilfd.condition "a" (v "x") ] "b" (v "v") ]
  in
  let extend r =
    Ilfd.Fixpoint.extend_relation r ~target:(R.Relation.schema r) family
  in
  let coded_view_agrees r =
    R.Columnar.equal (R.Relation.columnar r)
      (R.Columnar.encode (R.Relation.schema r)
         (Array.of_list (R.Relation.tuples r)))
  in
  [
    case "no declared key: a filled NULL collapses into its copy" (fun () ->
        let r =
          R.Relation.create (R.Schema.of_names [ "a"; "b" ])
            [ [ v "x"; V.Null ]; [ v "x"; v "v" ] ]
        in
        let ext = extend r in
        Alcotest.(check int) "one row" 1 (R.Relation.cardinality ext);
        Alcotest.(check bool) "the filled row" true
          (R.Tuple.equal (List.hd (R.Relation.tuples ext))
             (R.Tuple.make (R.Relation.schema r) [ v "x"; v "v" ]));
        Alcotest.(check bool) "coded view" true (coded_view_agrees ext));
    case "declared key: identical rows through the trusted path" (fun () ->
        let schema = R.Schema.of_names [ "a"; "b"; "c" ] in
        let r =
          R.Relation.create schema ~keys:[ [ "c" ] ]
            [ [ v "x"; V.Null; vi 1 ]; [ v "x"; v "v"; vi 2 ] ]
        in
        let ext = extend r in
        let expected =
          R.Relation.of_tuples schema ~keys:[ [ "c" ] ]
            [
              R.Tuple.make schema [ v "x"; v "v"; vi 1 ];
              R.Tuple.make schema [ v "x"; v "v"; vi 2 ];
            ]
        in
        Alcotest.(check bool) "rows" true
          (List.equal R.Tuple.equal (R.Relation.tuples ext)
             (R.Relation.tuples expected));
        Alcotest.(check (list (list string))) "keys" [ [ "c" ] ]
          (R.Relation.declared_keys ext);
        Alcotest.(check bool) "coded view" true (coded_view_agrees ext));
    case "a derived cell only fills a NULL" (fun () ->
        let r =
          R.Relation.create (R.Schema.of_names [ "a" ]) ~keys:[ [ "a" ] ]
            [ [ v "x" ] ]
        in
        Alcotest.check_raises "overwrite"
          (Invalid_argument
             "Relation.extend: a derived cell overwrites a non-NULL cell")
          (fun () ->
            ignore
              (R.Relation.extend r (R.Relation.schema r)
                 ~classes:[| 0 |]
                 ~derived:[| [ (0, R.Intern.code (v "y")) ] |])));
  ]

(* ---- the intern table ---- *)

module Value_map = Map.Make (V)

(* Each run of the intern property draws its values from a space of its
   own (its [epoch]), so ints, floats and strings are unseen by the pool
   when the run starts; NULL, the booleans, signed zeros and NaNs may
   have been interned by any earlier test. *)
let intern_epoch = ref 0
let base epoch = 1_000_000_000_000_000 + (epoch * 1_000_000_000)

let nan_payloads =
  [| Float.nan; -.Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
     Int64.float_of_bits 0xFFF8000000000042L |]

(* [(tag, k)] to a value and whether it is unseen: an int, an integral
   float (its int partner is interned first), a fractional float, an
   int and a float past 2^53 (no partner), a string, then the values
   other tests share. *)
let intern_value epoch (tag, k) =
  match tag with
  | 0 -> (V.int (base epoch + k), true)
  | 1 -> (V.float (float_of_int (base epoch + k)), true)
  | 2 -> (V.float (float_of_int (base epoch + k) +. 0.5), true)
  | 3 -> (V.int (max_int - base epoch - k), true)
  | 4 -> (V.float (0x1p60 +. (0x1p8 *. float_of_int (base epoch + k))), true)
  | 5 -> (V.string (Printf.sprintf "intern %d %d" epoch k), true)
  | 6 -> (V.bool (k land 1 = 0), false)
  | 7 -> (V.null, false)
  | 8 -> (V.float (if k land 1 = 0 then 0. else -0.), false)
  | _ -> (V.float nan_payloads.(k land 3), false)

(* Most draws are distinct: over 10k values per run, so the slot array
   doubles several times. *)
let intern_gen =
  QCheck2.Gen.(
    list_size (10_500 -- 12_000)
      (pair
         (frequency
            [ (3, return 0); (3, return 1); (2, return 2); (1, return 3);
              (1, return 4); (6, return 5); (1, return 6); (1, return 7);
              (1, return 8); (1, return 9) ])
         (int_bound 999_999_999)))

(* The integral float's canonical int partner, which takes its code
   first, as [Intern] documents. *)
let partner = function
  | V.Float f when Float.is_integer f && Float.abs f <= 0x1p53 ->
      Some (V.int (int_of_float f))
  | _ -> None

(* Interns the draws in order and checks each against a first-seen
   numbering that starts at [size ()]. *)
let interns_in_first_seen_order draws =
  incr intern_epoch;
  let epoch = !intern_epoch in
  let next = ref (R.Intern.size ()) and model = ref Value_map.empty in
  let expect v =
    match Value_map.find_opt v !model with
    | Some c -> c
    | None ->
        let c =
          match R.Intern.find v with
          | Some c -> c
          | None ->
              let c = !next in
              incr next;
              c
        in
        model := Value_map.add v c !model;
        c
  in
  List.for_all
    (fun draw ->
      let v, unseen = intern_value epoch draw in
      let known = Value_map.mem v !model in
      let before = R.Intern.find v in
      if unseen && (not known) && before <> None then
        QCheck2.Test.fail_reportf "%s found before it was interned"
          (V.to_string v);
      if (not known) && before = None then
        Option.iter (fun p -> ignore (expect p)) (partner v);
      let want = expect v in
      let got = R.Intern.code v in
      if got <> want then
        QCheck2.Test.fail_reportf "%s got code %d, expected %d" (V.to_string v)
          got want;
      R.Intern.find v = Some got
      && V.equal (R.Intern.value got) v
      && R.Intern.size () = !next)
    draws

(* Two domains intern overlapping value sets, each decoding every code
   it gets while the other writes; then each decodes all of the other's
   codes. *)
let two_domains_agree () =
  let n = 20_000 in
  let values lo =
    List.init n (fun i -> V.string (Printf.sprintf "two domains %d" (lo + i)))
  in
  let left = values 0 and right = List.rev (values (n / 2)) in
  let intern vs =
    Domain.spawn (fun () ->
        List.map
          (fun v ->
            let c = R.Intern.code v in
            if not (V.equal (R.Intern.value c) v) then failwith "decoded wrong";
            (v, c))
          vs)
  in
  let l = intern left and r = intern right in
  let l = Domain.join l and r = Domain.join r in
  let codes = Hashtbl.create n in
  List.iter (fun (v, c) -> Hashtbl.replace codes (V.to_string v) c) l;
  List.iter
    (fun (v, c) ->
      match Hashtbl.find_opt codes (V.to_string v) with
      | Some c' ->
          Alcotest.(check int) ("one code for " ^ V.to_string v) c' c
      | None -> ())
    r;
  let decodes pairs =
    Domain.spawn (fun () ->
        List.for_all (fun (v, c) -> V.equal (R.Intern.value c) v) pairs)
  in
  let on_right = decodes l and on_left = decodes r in
  Alcotest.(check bool) "left codes decode on another domain" true
    (Domain.join on_right);
  Alcotest.(check bool) "right codes decode on another domain" true
    (Domain.join on_left)

let intern_tests =
  [
    case "codes round-trip and share structure" (fun () ->
        let vs =
          [
            v "Hunan";
            vi 42;
            V.null;
            V.bool true;
            V.float 2.5;
            v "";
          ]
        in
        List.iter
          (fun x ->
            let c = R.Intern.code x in
            Alcotest.(check bool) "round-trip" true
              (V.equal (R.Intern.value c) x);
            Alcotest.(check int) "stable code" c (R.Intern.code x);
            Alcotest.(check bool) "share is equal" true
              (V.equal (R.Intern.share x) x))
          vs;
        Alcotest.(check int) "NULL is code 0" R.Intern.null_code
          (R.Intern.code V.null));
    case "match codes equate cross-type numeric identity" (fun () ->
        let i = R.Intern.code (vi 3) and f = R.Intern.code (V.float 3.0) in
        Alcotest.(check bool) "distinct storage" true (i <> f);
        Alcotest.(check int) "one match class" (R.Intern.match_code i)
          (R.Intern.match_code f);
        Alcotest.(check bool) "codes_match" true (R.Intern.codes_match i f);
        let g = R.Intern.code (V.float 3.5) in
        Alcotest.(check bool) "3 <> 3.5" false (R.Intern.codes_match i g);
        Alcotest.(check bool) "NULL never matches" false
          (R.Intern.codes_match R.Intern.null_code R.Intern.null_code));
    case "ambiguous magnitudes carry the unsafe sentinel" (fun () ->
        let big = R.Intern.code (vi 9007199254740993) in
        Alcotest.(check int) "unsafe" R.Intern.unsafe_match
          (R.Intern.match_code big);
        (* codes_match must then defer to non_null_eq, which is exact. *)
        Alcotest.(check bool) "still equal to itself" true
          (R.Intern.codes_match big big);
        let bigf = R.Intern.code (V.float 9007199254740994.0) in
        Alcotest.(check bool) "9007199254740993 <> 9007199254740994." false
          (R.Intern.codes_match big bigf));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:3 ~name:"codes follow first-seen order"
         ~print:(fun d -> Printf.sprintf "%d draws" (List.length d))
         intern_gen interns_in_first_seen_order);
    case "0. and -0. share a code, and so do all NaNs" (fun () ->
        let zero = R.Intern.code (V.float 0.) in
        Alcotest.(check int) "-0." zero (R.Intern.code (V.float (-0.)));
        let nan = R.Intern.code (V.float Float.nan) in
        Array.iter
          (fun f ->
            Alcotest.(check int) "NaN payload" nan (R.Intern.code (V.float f)))
          nan_payloads);
    case "two domains intern overlapping values" two_domains_agree;
  ]

(* ---- covering buckets ---- *)

(* [e1.A = e2.A] for each attribute: a rule its hash buckets cover. *)
let same_values attrs =
  Rules.Distinctness.make ~name:"same-values" (List.map Rules.Atom.eq_attrs attrs)

let covering_tests =
  [
    case "equality-only rules are their own blocking key" (fun () ->
        let rule = same_values [ "n"; "c" ] in
        Alcotest.(check bool) "equality_only" true
          (Rules.Distinctness.equality_only rule);
        Alcotest.(check (option (list string))) "blocking key"
          (Some [ "c"; "n" ])
          (Rules.Distinctness.blocking_key rule);
        let mixed =
          Rules.Distinctness.make ~name:"mixed"
            [
              Rules.Atom.eq_attrs "n";
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "n")
                R.Predicate.Eq (Rules.Atom.const (v "x"));
            ]
        in
        Alcotest.(check bool) "constant atom disqualifies" false
          (Rules.Distinctness.equality_only mixed));
    case "covering partition = naive partition on dirty data" (fun () ->
        (* Duplicates share buckets; NULLs never bucket; the covering
           short-cut must reproduce the nested loop exactly on both. The
           relations declare no key, so an entry holds whole tuples. *)
        let rows =
          [
            [ "a"; "1" ]; [ "a"; "1" ]; [ "b"; "2" ]; [ "c"; "1" ];
          ]
        in
        let with_null schema rows =
          R.Relation.of_tuples schema
            (R.Tuple.make schema [ v "a"; V.null ]
            :: List.map (fun cells -> R.Tuple.make schema (List.map v cells))
                 rows)
        in
        let schema = R.Schema.of_names [ "n"; "c" ] in
        let r = with_null schema rows
        and s = with_null schema (List.tl rows) in
        let distinctness = [ same_values [ "n"; "c" ] ] in
        let _, naive, _ =
          Checker.Reference.partition_naive ~identity:[] ~distinctness r s
        in
        let fast =
          E.Matching_table.entries (E.Negative.of_rules ~r ~s distinctness)
        in
        Alcotest.(check bool) "distinct" true
          (List.equal
             (fun (tr, ts) (ur, us) -> R.Tuple.equal tr ur && R.Tuple.equal ts us)
             naive
             (List.map
                (fun (e : E.Matching_table.entry) -> (e.r_key, e.s_key))
                fast)));
    case "an equality rule fires on numbers equal across types" (fun () ->
        (* [e1.a = e2.a] holds for [Int 1] and [Float 1.] ([Value.eq3]),
           and for an int and a float above 2^53 that are the same
           number, which have no match code and take the fallback. *)
        let big = 1 lsl 60 in
        let schema = R.Schema.of_names [ "id"; "a" ] in
        let rel rows =
          R.Relation.of_tuples schema
            (List.map (fun (id, a) -> R.Tuple.make schema [ v id; a ]) rows)
        in
        let r =
          rel
            [
              ("r1", V.int 1); ("r2", V.int big); ("r3", V.float 2.5);
              ("r4", V.null);
            ]
        and s =
          rel
            [
              ("s1", V.float 1.); ("s2", V.float (float_of_int big));
              ("s3", V.int 2); ("s4", V.float 2.5); ("s5", V.null);
            ]
        in
        let distinctness = [ same_values [ "a" ] ] in
        let _, naive, _ =
          Checker.Reference.partition_naive ~identity:[] ~distinctness r s
        in
        let fast =
          List.map
            (fun (e : E.Matching_table.entry) ->
              (R.Tuple.to_string e.r_key, R.Tuple.to_string e.s_key))
            (E.Matching_table.entries (E.Negative.of_rules ~r ~s distinctness))
        in
        Alcotest.(check int) "three pairs" 3 (List.length fast);
        Alcotest.(check (list (pair string string))) "the reference's pairs"
          (List.map
             (fun (tr, ts) -> (R.Tuple.to_string tr, R.Tuple.to_string ts))
             naive)
          fast);
  ]

(* ---- the scan fallback and its desync witness ---- *)

(* A plan the compiler supports (safe rule values), over data whose base
   cells carry an integer above 2^53 — the cross-type identity of such
   numerics is ambiguous under interning, so the class holding that row
   must take the per-tuple recursive fallback rather than the tries. *)
let fallback_scenario () =
  let huge = 9007199254740993 (* 2^53 + 1 *) in
  let ilfds = [ Ilfd.make1 [ Ilfd.condition "n" (vi 1) ] "flag" (v "one") ] in
  let schema = R.Schema.of_names [ "id"; "n" ] in
  let r =
    R.Relation.of_tuples schema
      [
        R.Tuple.make schema [ vi 1; vi 1 ];
        R.Tuple.make schema [ vi 2; vi huge ];
      ]
  in
  let target = R.Schema.of_names [ "id"; "n"; "flag" ] in
  (huge, ilfds, r, target)

let fallback_tests =
  [
    case "ambiguous base cells take the per-class fallback" (fun () ->
        let _, ilfds, r, target = fallback_scenario () in
        Alcotest.(check bool) "plan supported" true
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target
             ilfds);
        let telemetry = Telemetry.create () in
        let out =
          Ilfd.Fixpoint.extend_relation ~telemetry r ~target
            (Ilfd.Apply.compile ilfds)
        in
        Alcotest.(check bool) "fallback classes counted" true
          (Telemetry.counter telemetry "ilfd.fixpoint.fallback_classes" > 0);
        let recursive =
          Checker.Reference.extend_relation r ~target ilfds
        in
        Alcotest.(check bool) "agrees with recursive" true
          (R.Relation.equal out recursive));
    case "fallback conflict raises a typed desync witness" (fun () ->
        (* The fallback runs in First_rule mode, where conflicts are
           impossible; if one ever surfaces it must arrive as
           Fallback_desync with the offending tuple inside, not as an
           anonymous assertion failure. Exercised via the injection
           hook. *)
        let huge, ilfds, r, target = fallback_scenario () in
        let injected =
          {
            Ilfd.Apply.attribute = "flag";
            first = v "one";
            second = v "two";
            rule = List.hd ilfds;
          }
        in
        Fun.protect
          ~finally:(fun () ->
            Ilfd.Fixpoint.inject_fallback_conflict := fun _ -> None)
          (fun () ->
            (Ilfd.Fixpoint.inject_fallback_conflict :=
               fun t ->
                 if V.equal (R.Tuple.nth t 1) (vi huge) then Some injected
                 else None);
            match
              Ilfd.Fixpoint.extend_relation r ~target
                (Ilfd.Apply.compile ilfds)
            with
            | _ -> Alcotest.fail "expected Fallback_desync"
            | exception Ilfd.Fixpoint.Fallback_desync { tuple; conflict } ->
                Alcotest.(check bool) "witness tuple" true
                  (V.equal (R.Tuple.nth tuple 1) (vi huge));
                Alcotest.(check string) "witness attribute" "flag"
                  conflict.attribute);
        (* The hook is restored: the same evaluation succeeds again. *)
        ignore
          (Ilfd.Fixpoint.extend_relation r ~target (Ilfd.Apply.compile ilfds)));
  ]

(* ---- telemetry contract ---- *)

let counter_tests =
  [
    case "restaurant R′ derives only what its target reads" (fun () ->
        (* R′ adds speciality to R, derived by (name, street) ->
           speciality at most once per class. street -> county derives
           an attribute R′ lacks and no rule R′ needs reads, so no class
           derives it. *)
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 30; seed = 11 }
        in
        let target = E.Identify.extension_schema inst.r inst.key in
        let telemetry = Telemetry.create () in
        ignore
          (Ilfd.Fixpoint.extend_relation ~telemetry inst.r ~target
             (Ilfd.Apply.compile inst.ilfds));
        let c = Telemetry.counter telemetry in
        Alcotest.(check bool) "delta facts <= classes" true
          (c "ilfd.fixpoint.delta_facts" <= c "ilfd.fixpoint.classes");
        Alcotest.(check bool) "classes <= tuples" true
          (c "ilfd.fixpoint.classes" <= c "ilfd.tuples");
        Alcotest.(check int) "no fallback classes" 0
          (c "ilfd.fixpoint.fallback_classes"));
  ]

(* ---- the per-tuple evaluator ----

   Random families over five attributes, with antecedents of zero to
   three conditions (so rules of one consequent fall into many
   signature groups, interleaved), values drawn so that Int and Float
   spellings of one number meet, rows with NULLs, and a target that
   drops some attributes (they become scratch) and adds others. On every
   row, in both modes, the evaluator must give the scan's answer: the
   tuple, the derivations in their order, the conflict witness. Cyclic
   families are kept too: they must take the scan. The same rows, as a
   relation with no declared key and again keyed on a fresh [id], must
   extend to the reference's rows, in order, or raise its witness: the
   batch path starts from the columnar view's codes, not from tuples. *)

let tuple_case_gen =
  QCheck2.Gen.(
    let attrs = [ "a"; "b"; "c"; "d"; "e" ] in
    let value =
      oneofl [ vi 1; vi 2; V.float 1.; V.float 2.5; v "x"; v "y" ]
    in
    (* Mostly acyclic: a rule usually reads attributes before the one it
       derives, in [attrs] order. *)
    let rule =
      let* k = 0 -- 4 in
      let earlier = List.filteri (fun i _ -> i < k) attrs in
      let ante_attr =
        if earlier = [] then oneofl attrs
        else frequency [ (9, oneofl earlier); (1, oneofl attrs) ]
      in
      let* ante = list_size (0 -- 3) (map2 Ilfd.condition ante_attr value) in
      let* v = value in
      return
        (match Ilfd.make ante [ Ilfd.condition (List.nth attrs k) v ] with
        | r -> Some r
        | exception Ilfd.Ill_formed _ -> None)
    in
    let cell = frequency [ (1, return V.null); (3, value) ] in
    let* ilfds = map (List.filter_map Fun.id) (list_size (1 -- 14) rule) in
    let* source = oneofl [ [ "a"; "b" ]; [ "a"; "c"; "e" ]; [ "b"; "d" ]; [ "a" ] ] in
    let* extra = oneofl [ [ "c"; "d" ]; [ "e"; "c" ]; [ "d" ]; [] ] in
    let extra = List.filter (fun x -> not (List.mem x source)) extra in
    let* rows = list_size (1 -- 6) (list_repeat (List.length source) cell) in
    return (ilfds, source, extra, rows))

let print_tuple_case (ilfds, source, extra, rows) =
  Printf.sprintf "rules: %s\nsource: %s, extra: %s\nrows: %s"
    (String.concat "; " (List.map Ilfd.to_string ilfds))
    (String.concat "," source) (String.concat "," extra)
    (String.concat " | "
       (List.map (fun r -> String.concat "," (List.map V.to_string r)) rows))

let evaluator_agrees (ilfds, names, extra, rows) =
  let source = R.Schema.of_names names in
  let target = R.Schema.concat source (R.Schema.of_names extra) in
  let compiled = Ilfd.Apply.compile ilfds in
  let plan = Ilfd.Fixpoint.plan ~source ~target compiled in
  let modes = [ Ilfd.Apply.First_rule; Ilfd.Apply.Check_conflicts ] in
  let same_conflict (x : Ilfd.Apply.conflict) (y : Ilfd.Apply.conflict) =
    x.attribute = y.attribute && V.equal x.first y.first
    && V.equal x.second y.second && Ilfd.equal x.rule y.rule
  in
  let same a b =
    match (a, b) with
    | Ok (t1, d1), Ok (t2, d2) ->
        R.Tuple.equal t1 t2
        && List.equal
             (fun (x : Ilfd.Apply.derivation) (y : Ilfd.Apply.derivation) ->
               x.attribute = y.attribute && V.equal x.value y.value
               && Ilfd.equal x.rule y.rule)
             d1 d2
    | Error x, Error y -> same_conflict x y
    | _ -> false
  in
  let relation_agrees r ~target =
    let outcome f =
      match f () with
      | rel -> Ok (R.Relation.tuples rel)
      | exception Ilfd.Apply.Conflict_found c -> Error c
    in
    List.for_all
      (fun mode ->
        match
          ( outcome (fun () ->
                Ilfd.Fixpoint.extend_relation ~mode r ~target compiled),
            outcome (fun () ->
                Checker.Reference.extend_relation ~mode r ~target ilfds) )
        with
        | Ok a, Ok b -> List.equal R.Tuple.equal a b
        | Error x, Error y -> same_conflict x y
        | _ -> false)
      modes
  in
  let keyed = R.Schema.of_names ("id" :: names) in
  List.for_all
    (fun cells ->
      let t = R.Tuple.make source cells in
      List.for_all
        (fun mode ->
          same
            (Ilfd.Fixpoint.extend_tuple ~mode plan t)
            (Ilfd.Apply.extend_tuple_compiled ~mode source t ~target compiled))
        modes)
    rows
  && relation_agrees (R.Relation.create source rows) ~target
  && relation_agrees
       (R.Relation.create keyed ~keys:[ [ "id" ] ]
          (List.mapi (fun i cells -> vi i :: cells) rows))
       ~target:(R.Schema.concat keyed (R.Schema.of_names extra))

let tuple_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000 ~name:"extend_tuple = the scan"
         ~print:print_tuple_case tuple_case_gen evaluator_agrees);
    case "a 2-step chain is listed in demand order" (fun () ->
        (* c is looked up first (target order) and needs b; d needs
           nothing derived. The reference records b, c, then d. *)
        let ilfds =
          [
            Ilfd.make1 [ Ilfd.condition "a" (vi 1) ] "b" (vi 2);
            Ilfd.make1 [ Ilfd.condition "b" (vi 2) ] "c" (vi 3);
            Ilfd.make1 [ Ilfd.condition "a" (vi 1) ] "d" (vi 4);
          ]
        in
        let source = R.Schema.of_names [ "a" ] in
        let target = R.Schema.of_names [ "a"; "c"; "d" ] in
        let plan =
          Ilfd.Fixpoint.plan ~source ~target (Ilfd.Apply.compile ilfds)
        in
        match Ilfd.Fixpoint.extend_tuple plan (R.Tuple.make source [ vi 1 ]) with
        | Ok (t, ds) ->
            Alcotest.(check (list string)) "order" [ "b"; "c"; "d" ]
              (List.map (fun (d : Ilfd.Apply.derivation) -> d.attribute) ds);
            Alcotest.(check bool) "tuple" true
              (R.Tuple.equal t (R.Tuple.make target [ vi 1; vi 3; vi 4 ]))
        | Error _ -> Alcotest.fail "unexpected conflict");
    case "scans are counted" (fun () ->
        let _, ilfds, r, target = fallback_scenario () in
        let plan =
          Ilfd.Fixpoint.plan ~source:(R.Relation.schema r) ~target
            (Ilfd.Apply.compile ilfds)
        in
        let telemetry = Telemetry.create () in
        List.iter
          (fun t -> ignore (Ilfd.Fixpoint.extend_tuple ~telemetry plan t))
          (R.Relation.tuples r);
        Alcotest.(check int) "one ambiguous row" 1
          (Telemetry.counter telemetry "ilfd.fixpoint.fallback_classes"));
  ]

let () =
  Alcotest.run "fixpoint"
    [
      ("agreement", agreement_tests);
      ("extension", extension_tests);
      ("intern", intern_tests);
      ("covering", covering_tests);
      ("fallback", fallback_tests);
      ("counters", counter_tests);
      ("per-tuple", tuple_tests);
    ]
