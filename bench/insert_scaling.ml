(* Scaling gate for the serve path's per-request cost.

     dune exec bench/insert_scaling.exe

   Preloads two stores (fsync off) with 1k and 64k rows per side, shaped
   like the end-to-end benchmark's [data] serve workload:
   R(name, cuisine, street) keyed on (name, cuisine), S(name, speciality,
   county) keyed on (name, speciality), 30 [speciality -> cuisine]
   ILFDs, K_Ext = (name, cuisine), every S row matching one R row. Then,
   on each store, it times [samples] further [Store.insert] calls (R
   and S alternating, each S row matching the R row before it) and
   [samples] batches of [batch] [stats] requests through
   [Service.handle], as a serve session runs them (one stats request
   takes about a microsecond, the clock's resolution). It exits 1 when
   the median at 64k exceeds [max_ratio] times the median at 1k for
   either. A store whose insert rebuilt the base relation, or whose
   stats request rebuilt the matching table, grows about 64x between
   the sizes; inserts and stats that touch O(log n) of the store grow
   1-2x. *)

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

let insert st side i =
  match Store.insert st side (row side i) with
  | Ok _ -> ()
  | Error c ->
      failwith (Format.asprintf "insert rejected: %a" Store.pp_conflict c)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Median seconds per insert and per stats request on a store of [n]
   rows per side. *)
let measure n =
  let dir = Eid_store.Fsutil.fresh_dir "insert_scaling" in
  Fun.protect ~finally:(fun () -> Eid_store.Fsutil.remove_tree dir)
  @@ fun () ->
  let st =
    match Store.open_store ~sync:false ~config ~dir () with
    | Ok st -> st
    | Error e -> failwith e
  in
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
  let stats = Json.Obj [ ("op", Json.String "stats") ] in
  let stats_times =
    List.init samples (fun _ ->
        timed (fun () ->
            for _ = 1 to batch do
              ignore (Eid_store.Service.handle st stats : Json.t)
            done)
        /. float_of_int batch)
  in
  Store.close st;
  (median inserts, median stats_times)

let () =
  let insert_small, stats_small = measure small in
  let insert_large, stats_large = measure large in
  let insert_ratio = insert_large /. insert_small
  and stats_ratio = stats_large /. stats_small in
  Printf.printf
    "{\"rows_small\": %d, \"rows_large\": %d, \"insert_small_ms\": %.4f, \
     \"insert_large_ms\": %.4f, \"insert_ratio\": %.2f, \"stats_small_ms\": \
     %.4f, \"stats_large_ms\": %.4f, \"stats_ratio\": %.2f, \"max_ratio\": \
     %.0f}\n"
    small large (insert_small *. 1000.) (insert_large *. 1000.) insert_ratio
    (stats_small *. 1000.) (stats_large *. 1000.) stats_ratio max_ratio;
  let fail what ratio =
    Printf.eprintf
      "insert_scaling: %s at %d rows per side takes %.1fx its time at %d \
       (limit %.0fx); a serve request grows with the store again\n"
      what large ratio small max_ratio
  in
  if insert_ratio > max_ratio then fail "an insert" insert_ratio;
  if stats_ratio > max_ratio then fail "a stats request" stats_ratio;
  if insert_ratio > max_ratio || stats_ratio > max_ratio then exit 1
