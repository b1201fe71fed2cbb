(* Scaling gate for the serve path's per-request cost.

     dune exec bench/insert_scaling.exe

   Three sweeps, each timing a request on a small and a large setting
   and exiting 1 when the large median exceeds [max_ratio] times the
   small one.

   Store size. Preloads two stores (fsync off) with 1k and 64k rows per
   side, shaped like the end-to-end benchmark's [data] serve workload:
   R(name, cuisine, street) keyed on (name, cuisine), S(name,
   speciality, county) keyed on (name, speciality), 30 [speciality ->
   cuisine] ILFDs, K_Ext = (name, cuisine), every S row matching one R
   row. Then, on each store, it times [samples] further [Store.insert]
   calls (R and S alternating, each S row matching the R row before
   it), and [samples] batches of [batch] [stats] requests and of
   [batch] keyed [explain] requests (one matched pair named by both its
   keys) through [Service.handle], as a serve session runs them (one
   such request takes a few microseconds, near the clock's
   resolution). A store whose insert rebuilt the base relation, whose
   stats request rebuilt the matching table, or whose explain request
   re-ran the batch pipeline grows about 64x between the sizes; requests
   that touch O(log n) of the store grow 1-2x.

   Family size. Opens two stores whose families put 1k and 64k [name &
   street -> speciality] rules on one consequent, shaped like the
   [rules] workload, and times [samples] R inserts whose rows fire one
   of those rules. A derivation that tests every candidate rule grows
   about 60x between the sizes; one that probes the rule group's tables
   stays flat. *)

module Store = Eid_store.Store
module Json = Eid_store.Json

let small = 1_000
let large = 64_000
let samples = 300
let batch = 50
let max_ratio = 4.

let config =
  {
    Store.r_attrs = [ "name"; "cuisine"; "street" ];
    r_key = [ "name"; "cuisine" ];
    s_attrs = [ "name"; "speciality"; "county" ];
    s_key = [ "name"; "speciality" ];
    key = [ "name"; "cuisine" ];
    rules =
      List.init 30 (fun k ->
          Printf.sprintf "speciality = Spec%d -> cuisine = Cuisine%d" k k);
    check_conflicts = false;
  }

let row side i =
  let s x = Relational.Value.String x in
  match side with
  | Store.R ->
      [| s (Printf.sprintf "N%d" i); s (Printf.sprintf "Cuisine%d" (i mod 30));
         s (Printf.sprintf "St%d" i) |]
  | Store.S ->
      [| s (Printf.sprintf "N%d" i); s (Printf.sprintf "Spec%d" (i mod 30));
         s "County" |]

let insert_row st side row =
  match Store.insert st side row with
  | Ok _ -> ()
  | Error c ->
      failwith (Format.asprintf "insert rejected: %a" Store.pp_conflict c)

let insert st side i = insert_row st side (row side i)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let with_store config f =
  let dir = Eid_store.Fsutil.fresh_dir "insert_scaling" in
  Fun.protect ~finally:(fun () -> Eid_store.Fsutil.remove_tree dir)
  @@ fun () ->
  let st =
    match Store.open_store ~sync:false ~config ~dir () with
    | Ok st -> st
    | Error e -> failwith e
  in
  Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st)

(* Median seconds per request, over [samples] batches of [batch]. *)
let per_request st req =
  median
    (List.init samples (fun _ ->
         timed (fun () ->
             for _ = 1 to batch do
               ignore (Eid_store.Service.handle st req : Json.t)
             done)
         /. float_of_int batch))

(* Median seconds per insert, per stats request and per keyed explain
   request on a store of [n] rows per side. *)
let measure n =
  with_store config @@ fun st ->
  for i = 0 to n - 1 do
    insert st Store.R i;
    insert st Store.S i
  done;
  Gc.full_major ();
  let inserts =
    List.init samples (fun k ->
        let side = if k mod 2 = 0 then Store.R else Store.S in
        timed (fun () -> insert st side (n + (k / 2))))
  in
  let stats = per_request st (Json.Obj [ ("op", Json.String "stats") ]) in
  let k = n / 2 in
  let key attrs side =
    Json.Obj
      (List.map2
         (fun a v -> (a, Eid_store.Service.json_of_value v))
         attrs
         (Array.to_list (Array.sub (row side k) 0 2)))
  in
  let explain =
    Json.Obj
      [
        ("op", Json.String "explain");
        ("r_key", key config.r_key Store.R);
        ("s_key", key config.s_key Store.S);
      ]
  in
  (match Json.string_member "report" (Eid_store.Service.handle st explain) with
  | Some report when String.length report > 0 -> ()
  | _ -> failwith "keyed explain found no matched pair");
  (median inserts, stats, per_request st explain)

(* The family sweep's store: [rules] rules on speciality, plus the
   speciality -> cuisine rules, as in the [rules] workload. *)
let family_config rules =
  {
    config with
    key = [ "name"; "cuisine"; "speciality" ];
    rules =
      List.init 30 (fun k ->
          Printf.sprintf "speciality = Spec%d -> cuisine = Cuisine%d" k k)
      @ List.init rules (fun k ->
            Printf.sprintf "name = N%d & street = St%d -> speciality = Spec%d"
              k k (k mod 30));
  }

(* Median seconds per R insert that fires one of [rules] rules. *)
let measure_family rules =
  with_store (family_config rules) @@ fun st ->
  (* The first insert builds the rule tables. *)
  insert_row st Store.R (row Store.R rules);
  Gc.full_major ();
  median
    (List.init samples (fun k ->
         let i = k * (rules / samples) in
         timed (fun () -> insert st Store.R i)))

let () =
  let insert_small, stats_small, explain_small = measure small in
  let insert_large, stats_large, explain_large = measure large in
  let family_small = measure_family small in
  let family_large = measure_family large in
  let ratios =
    [
      ("an insert", "insert", insert_small, insert_large, "rows per side");
      ("a stats request", "stats", stats_small, stats_large, "rows per side");
      ( "a keyed explain request",
        "explain",
        explain_small,
        explain_large,
        "rows per side" );
      ( "an insert into a large family",
        "family_insert",
        family_small,
        family_large,
        "rules on one consequent" );
    ]
  in
  Printf.printf
    "{\"rows_small\": %d, \"rows_large\": %d, \"rules_small\": %d, \
     \"rules_large\": %d, %s, \"max_ratio\": %.0f}\n"
    small large small large
    (String.concat ", "
       (List.map
          (fun (_, name, lo, hi, _) ->
            Printf.sprintf
              "\"%s_small_ms\": %.4f, \"%s_large_ms\": %.4f, \"%s_ratio\": %.2f"
              name (lo *. 1000.) name (hi *. 1000.) name (hi /. lo))
          ratios))
    max_ratio;
  let failed =
    List.filter
      (fun (what, _, lo, hi, unit) ->
        let ratio = hi /. lo in
        if ratio > max_ratio then
          Printf.eprintf
            "insert_scaling: %s at %d %s takes %.1fx its time at %d (limit \
             %.0fx); a serve request grows with the store or the family \
             again\n"
            what large unit ratio small max_ratio;
        ratio > max_ratio)
      ratios
  in
  if failed <> [] then exit 1
