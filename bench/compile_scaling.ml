(* Scaling gate for ILFD compilation: [Ilfd.Apply.compile] plus one
   extension that walks every rule group, so every trie is built.

     dune exec bench/compile_scaling.exe

   Compiles generated families of 2k and 32k rules shaped like the
   end-to-end benchmark's [rules] family — per restaurant
   [name & street -> speciality] and [street -> county], so two
   consequent attributes each index half the family — then extends one
   tuple holding a name and a street to a target holding both
   consequents, which builds both groups' tries, and exits 1 when
   t(32k) / t(2k) exceeds 40. Work linear in the family is 16x (15-25x
   measured on a 2-core x86-64 host: the larger family misses cache and
   promotes to the major heap); a compile that appends to each
   consequent's rule list, or a trie that rescans its rules per key, is
   256x or more (over 900x measured). Each size takes the best of 3
   runs; a run repeats compile and extension enough times to cover 32k
   rules (so the 2k run is not a sub-millisecond sample), and t is that
   run's time per repetition. *)

module R = Relational

let small = 2_000
let large = 32_000
let max_ratio = 40.

let family n =
  let c = Ilfd.condition and s x = R.Value.String x in
  List.init n (fun i ->
      let e = i / 2 in
      let street = c "street" (s (Printf.sprintf "St%d" e)) in
      if i mod 2 = 0 then
        Ilfd.make
          [ c "name" (s (Printf.sprintf "N%d" (e / 3))); street ]
          [ c "speciality" (s (Printf.sprintf "Spec%d" (e mod 30))) ]
      else
        Ilfd.make [ street ]
          [ c "county" (s (Printf.sprintf "County%d" (e mod 20))) ])

let source = R.Schema.of_names [ "name"; "street" ]
let target = R.Schema.of_names [ "name"; "street"; "speciality"; "county" ]

(* The family's first restaurant: both of its rules fire. *)
let tuple = R.Tuple.make source [ R.Value.String "N0"; R.Value.String "St0" ]

(* Compile, then extend [tuple]: the extension walks both groups. *)
let compile_and_extend rules =
  let plan = Ilfd.Fixpoint.plan ~source ~target (Ilfd.Apply.compile rules) in
  match Ilfd.Fixpoint.extend_tuple plan tuple with
  | Ok (_, [ _; _ ]) -> ()
  | Ok _ | Error _ ->
      prerr_endline "compile_scaling: the extension did not derive both rules";
      exit 2

(* Seconds per repetition: the best of 3 runs of [large / n]. *)
let time_per_compile n =
  let rules = family n in
  let reps = max 1 (large / n) in
  let run () =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      compile_and_extend rules
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  List.fold_left min infinity (List.init 3 (fun _ -> run ()))

let () =
  let t_small = time_per_compile small and t_large = time_per_compile large in
  let ratio = t_large /. t_small in
  Printf.printf
    "{\"rules_small\": %d, \"small_ms\": %.3f, \"rules_large\": %d, \
     \"large_ms\": %.3f, \"ratio\": %.1f, \"max_ratio\": %.0f}\n"
    small (t_small *. 1000.) large (t_large *. 1000.) ratio max_ratio;
  if ratio > max_ratio then begin
    Printf.eprintf
      "compile_scaling: t(%d)/t(%d) = %.1f exceeds %.0f; compiling an ILFD \
       family and building its tries is no longer linear in the family\n"
      large small ratio max_ratio;
    exit 1
  end
