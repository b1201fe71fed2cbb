(* Tests for the streamed join against its materialised form, and for
   how a stream stops early. *)

module R = Relational
module E = Entity_id

let case name f = Alcotest.test_case name `Quick f

(* ---- streaming vs materialised ---- *)

let instance () =
  Workload.Restaurant.generate
    { Workload.Restaurant.default with n_entities = 60; seed = 11 }

let pair_equal (a1, a2) (b1, b2) = R.Tuple.equal a1 b1 && R.Tuple.equal a2 b2
let pairs = Alcotest.testable (fun ppf _ -> Format.fprintf ppf "<pairs>")
    (List.equal pair_equal)

let stream_pairs (inst : Workload.Restaurant.instance) =
  List.rev
    (E.Identify.run_stream ~r:inst.r ~s:inst.s ~key:inst.key ~init:[]
       ~f:(fun acc tr ts -> (tr, ts) :: acc)
       inst.ilfds)

(* The CLI's path: the two phases, the fold's row indices decoded. *)
let index_pairs (inst : Workload.Restaurant.instance) =
  let r', s' =
    E.Identify.extend ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
  in
  List.rev
    (E.Identify.fold_pairs ~key:inst.key r' s' ~init:[] ~f:(fun acc i j ->
         (R.Relation.row r' i, R.Relation.row s' j) :: acc))

(* Instances with NULL streets, partial rule coverage (so some K_Ext
   cells stay NULL) and homonyms. *)
let instance_gen =
  QCheck2.Gen.(
    map3
      (fun n_entities seed coverage ->
        Workload.Restaurant.generate
          {
            Workload.Restaurant.default with
            n_entities;
            seed;
            null_street_rate = 0.2;
            entity_ilfd_coverage = coverage;
            spec_ilfd_coverage = coverage;
          })
      (0 -- 40) nat
      (oneofl [ 0.; 0.5; 1. ]))

let empty_like rel =
  R.Relation.empty (R.Relation.schema rel)
    ~keys:(R.Relation.declared_keys rel)
    ()

let stream_tests =
  [
    case "run_stream equals run at every job count" (fun () ->
        let inst = instance () in
        let base =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        Alcotest.check pairs "pairs" base.pairs (stream_pairs inst));
    case "empty relations stream nothing" (fun () ->
        let inst = instance () in
        let empty_inst = { inst with r = empty_like inst.r } in
        Alcotest.check pairs "pairs" [] (stream_pairs empty_inst));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"the index fold visits run_stream's pairs, in order"
         instance_gen (fun inst ->
           List.equal pair_equal (index_pairs inst) (stream_pairs inst)));
  ]

(* ---- stopping early ---- *)

(* The CLI's --stream-out relies on both: a consumer that fails (EPIPE,
   ENOSPC) ends the stream with its error, and a conflicting family
   (--check-conflicts) raises before any pair is written. *)
let early_exit_tests =
  [
    case "a raising fold stops the stream at that pair" (fun () ->
        let inst = instance () in
        let folded = ref 0 in
        (match
           E.Identify.run_stream ~r:inst.r ~s:inst.s ~key:inst.key ~init:()
             ~f:(fun () _ _ ->
               incr folded;
               if !folded = 3 then raise Exit)
             inst.ilfds
         with
        | () -> Alcotest.fail "Exit expected"
        | exception Exit -> ());
        Alcotest.(check int) "pairs folded" 3 !folded);
    case "a conflicting family raises before any pair" (fun () ->
        let relation names cells =
          let schema = R.Schema.of_names names in
          R.Relation.of_tuples schema ~keys:[ [ "name" ] ]
            [ R.Tuple.make schema (List.map (fun c -> R.Value.String c) cells) ]
        in
        let r = relation [ "name" ] [ "alpha" ]
        and s = relation [ "name"; "cuisine" ] [ "alpha"; "first" ] in
        let folded = ref 0 in
        match
          E.Identify.run_stream ~mode:Ilfd.Apply.Check_conflicts ~r ~s
            ~key:(E.Extended_key.make [ "name"; "cuisine" ])
            ~init:()
            ~f:(fun () _ _ -> incr folded)
            [
              Ilfd.parse "name = alpha -> cuisine = first";
              Ilfd.parse "name = alpha -> cuisine = second";
            ]
        with
        | () -> Alcotest.fail "Conflict_found expected"
        | exception Ilfd.Apply.Conflict_found c ->
            Alcotest.(check string) "attribute" "cuisine" c.attribute;
            Alcotest.(check int) "pairs folded" 0 !folded);
  ]

(* Alcotest pads the group column to the longest group name and cuts
   test names to fit 80 columns. "early-exit", at ten characters, is the
   longest group name, so the names this binary prints stay put. *)
let () =
  Alcotest.run "shard"
    [ ("stream", stream_tests); ("early-exit", early_exit_tests) ]
