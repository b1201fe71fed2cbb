(* Tests for the domain pool's reuse/fallback behaviour and exit, and
   for the streamed join and partition against their materialised
   forms at every job count. *)

module R = Relational
module E = Entity_id

let case name f = Alcotest.test_case name `Quick f

(* ---- the domain pool ---- *)

let pool_tests =
  [
    case "resolve rejects non-positive job counts" (fun () ->
        Alcotest.(check int) "passthrough" 3 (Parallel.resolve (Some 3));
        Alcotest.(check bool) "default positive" true
          (Parallel.resolve None > 0);
        let raises j =
          match Parallel.resolve (Some j) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "jobs = 0" true (raises 0);
        Alcotest.(check bool) "jobs = -4" true (raises (-4)));
    case "small inputs fall back to one serial chunk" (fun () ->
        let before = Parallel.pool_spawned () in
        let chunks =
          Parallel.map_chunks ~jobs:4 100 (fun ~start ~stop -> (start, stop))
        in
        Alcotest.(check (list (pair int int))) "one chunk" [ (0, 100) ] chunks;
        Alcotest.(check int) "chunk_count agrees" 1
          (Parallel.chunk_count ~jobs:4 100);
        Alcotest.(check int) "no domains spawned" before
          (Parallel.pool_spawned ()));
    case "above the threshold the pool engages and is reused" (fun () ->
        (* Repeated batches must not spawn fresh domains — that
           spawn-per-call cost was the 14x small-input regression. *)
        let n = Parallel.default_threshold in
        let run () =
          Parallel.map_chunks ~jobs:2 n (fun ~start ~stop ->
              let s = ref 0 in
              for i = start to stop - 1 do
                s := !s + i
              done;
              !s)
        in
        let total l = List.fold_left ( + ) 0 l in
        Alcotest.(check int) "sum" (n * (n - 1) / 2) (total (run ()));
        let after_first = Parallel.pool_spawned () in
        Alcotest.(check bool) "spawned something" true (after_first > 0);
        for _ = 1 to 10 do
          Alcotest.(check int) "sum" (n * (n - 1) / 2) (total (run ()))
        done;
        Alcotest.(check int) "no further spawns" after_first
          (Parallel.pool_spawned ()));
    case "chunk exceptions re-raise from the lowest chunk" (fun () ->
        match
          Parallel.map_chunks ~jobs:4 Parallel.default_threshold
            (fun ~start ~stop:_ ->
              if start >= 0 then failwith (string_of_int start))
        with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure s -> Alcotest.(check string) "chunk 0" "0" s);
  ]

(* ---- streaming vs materialised ---- *)

let instance () =
  Workload.Restaurant.generate
    { Workload.Restaurant.default with n_entities = 60; seed = 11 }

let pair_equal (a1, a2) (b1, b2) = R.Tuple.equal a1 b1 && R.Tuple.equal a2 b2
let pairs = Alcotest.testable (fun ppf _ -> Format.fprintf ppf "<pairs>")
    (List.equal pair_equal)

let stream_pairs ~jobs (inst : Workload.Restaurant.instance) =
  List.rev
    (E.Identify.run_stream ~jobs ~r:inst.r ~s:inst.s ~key:inst.key ~init:[]
       ~f:(fun acc tr ts -> (tr, ts) :: acc)
       inst.ilfds)

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
        List.iter
          (fun jobs ->
            Alcotest.check pairs
              (Printf.sprintf "jobs=%d" jobs)
              base.pairs (stream_pairs ~jobs inst))
          [ 1; 2; 4 ]);
    case "empty relations stream nothing" (fun () ->
        let inst = instance () in
        let empty_inst = { inst with r = empty_like inst.r } in
        List.iter
          (fun jobs ->
            Alcotest.check pairs
              (Printf.sprintf "jobs=%d" jobs)
              [] (stream_pairs ~jobs empty_inst))
          [ 1; 2; 4 ]);
    case "partition_stream rebuckets to partition's lists" (fun () ->
        let inst = instance () in
        let identity = [ E.Extended_key.equivalence_rule inst.key ] in
        let m0, d0, u0 =
          E.Decision.partition ~identity ~distinctness:[] inst.r inst.s
        in
        List.iter
          (fun jobs ->
            let m, d, u =
              E.Decision.partition_stream ~jobs ~identity ~distinctness:[]
                ~init:([], [], [])
                ~f:(fun (m, d, u) result tr ts ->
                  match result with
                  | E.Match_result.Match -> ((tr, ts) :: m, d, u)
                  | E.Match_result.No_match -> (m, (tr, ts) :: d, u)
                  | E.Match_result.Undetermined -> (m, d, (tr, ts) :: u))
                inst.r inst.s
            in
            let label what = Printf.sprintf "%s jobs=%d" what jobs in
            Alcotest.check pairs (label "matched") m0 (List.rev m);
            Alcotest.check pairs (label "distinct") d0 (List.rev d);
            Alcotest.check pairs (label "undetermined") u0 (List.rev u))
          [ 1; 2; 4 ]);
  ]

(* ---- process exit with a live pool ---- *)

let engage_pool () =
  ignore
    (Parallel.map_chunks ~jobs:2 Parallel.default_threshold
       (fun ~start ~stop -> stop - start))

let exit_tests =
  [
    case "a live pool does not hold up process exit (subprocess)" (fun () ->
        (* Re-invoke this test binary in child mode: it engages the pool
           and exits normally with every worker parked. A clean status
           proves the pool's at_exit join ran to completion — no
           deadlock against the parked domains. *)
        let cmd =
          Printf.sprintf "TEST_POOL_EXIT_CHILD=1 %s >/dev/null 2>&1"
            (Filename.quote Sys.executable_name)
        in
        Alcotest.(check int) "clean exit" 0 (Sys.command cmd));
  ]

(* Child mode for the subprocess test above. *)
let pool_exit_child () =
  engage_pool ();
  assert (Parallel.pool_spawned () > 0);
  exit 0

(* Alcotest pads the group column to the longest group name and cuts
   test names to fit 80 columns. Keep "clean-exit", at ten characters,
   the longest group name, so the names this binary prints stay put. *)
let () =
  match Sys.getenv_opt "TEST_POOL_EXIT_CHILD" with
  | Some _ -> pool_exit_child ()
  | None ->
      Alcotest.run "shard"
        [
          ("pool", pool_tests);
          ("stream", stream_tests);
          ("clean-exit", exit_tests);
        ]
