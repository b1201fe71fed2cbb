(* Integrating THREE databases at once — the paper's "two (or more)"
   setting. Three city offices each keep a partial restaurant registry
   with its own schema quirks (one stores prices in cents, one splits
   the name); after schema alignment, k-way extended-key clustering
   groups the tuples per real-world entity, the generalized uniqueness
   constraint is verified, and attribute-value conflicts are fused.

   Run with:  dune exec examples/multidb_integration.exe *)

module R = Relational
module E = Entity_id

let v = R.Value.string

let () =
  (* DB1: the Example-3-style relation. *)
  let db1 =
    R.Relation.create
      (R.Schema.of_names [ "name"; "cuisine"; "street" ])
      ~keys:[ [ "name"; "cuisine" ] ]
      [
        [ v "TwinCities"; v "Chinese"; v "Co.B2" ];
        [ v "Anjuman"; v "Indian"; v "LeSalleAve." ];
        [ v "VillageWok"; v "Chinese"; v "Wash.Ave." ];
      ]
  in
  (* DB2: speciality instead of cuisine, price in dollars. *)
  let db2 =
    R.Relation.create
      (R.Schema.of_names [ "name"; "speciality"; "avg_price" ])
      ~keys:[ [ "name"; "speciality" ] ]
      [
        [ v "TwinCities"; v "Hunan"; R.Value.float 14.0 ];
        [ v "Anjuman"; v "Mughalai"; R.Value.float 18.0 ];
        [ v "ItsGreek"; v "Gyros"; R.Value.float 12.0 ];
      ]
  in
  (* DB3: synonym attribute names and prices in cents — schema-level
     heterogeneity handled by an alignment before identification. *)
  let db3_raw =
    R.Relation.create
      (R.Schema.of_names [ "rest_name"; "dish"; "price_cents" ])
      ~keys:[ [ "rest_name"; "dish" ] ]
      [
        [ v "TwinCities"; v "Hunan"; R.Value.int 1450 ];
        [ v "VillageWok"; v "Dumplings"; R.Value.int 1100 ];
      ]
  in
  let db3 =
    E.Align.apply
      [
        E.Align.Rename { from_attr = "rest_name"; to_attr = "name" };
        E.Align.Rename { from_attr = "dish"; to_attr = "speciality" };
        E.Align.Map
          {
            from_attr = "price_cents";
            to_attr = "avg_price";
            f = E.Align.scale_float 0.01;
          };
      ]
      db3_raw
  in
  print_endline "DB3 after alignment (synonyms renamed, cents -> dollars):";
  print_string (R.Pretty.render db3);

  let ilfds =
    List.map Ilfd.parse
      [
        "speciality = Hunan -> cuisine = Chinese";
        "speciality = Mughalai -> cuisine = Indian";
        "speciality = Gyros -> cuisine = Greek";
        "speciality = Dumplings -> cuisine = Chinese";
        "name = TwinCities & street = Co.B2 -> speciality = Hunan";
        "name = Anjuman & street = LeSalleAve. -> speciality = Mughalai";
        "name = VillageWok & street = Wash.Ave. -> speciality = Dumplings";
      ]
  in
  let key = E.Extended_key.make [ "name"; "cuisine"; "speciality" ] in
  let result =
    E.Cluster.integrate ~key ilfds
      [ ("db1", db1); ("db2", db2); ("db3", db3) ]
  in
  Printf.printf "\nclusters (%d):\n" (List.length result.clusters);
  List.iter
    (fun c -> Format.printf "  %a@." E.Cluster.pp_cluster c)
    result.clusters;
  Printf.printf
    "singletons: %d; undetermined (incomplete extended key): %d; \
     uniqueness violations: %d\n"
    (List.length result.singletons)
    (List.length result.undetermined)
    (List.length result.violations);

  (* Fuse the db2/db3 pair to resolve the price conflict (14.00 vs
     14.50) explicitly. *)
  let o = E.Identify.matched ~r:db2 ~s:db3 ~key ilfds in
  print_endline "\ndb2 vs db3 attribute-value conflicts (Section 2):";
  List.iter
    (fun (attr, l, r, key_tuple) ->
      Format.printf "  %s: %s vs %s for %a@." attr (R.Value.to_string l)
        (R.Value.to_string r) R.Tuple.pp key_tuple)
    (E.Fusion.conflicts o);
  let fused =
    E.Fusion.fuse
      ~overrides:
        [ ("avg_price",
           E.Fusion.Resolve
             (fun a b ->
               (* resolve price conflicts by averaging *)
               match a, b with
               | R.Value.Float x, R.Value.Float y -> R.Value.Float ((x +. y) /. 2.0)
               | _ -> a)) ]
      o
  in
  print_endline "\nfused db2+db3 (prices averaged on conflict):";
  print_string (R.Pretty.render fused)
