(* Seeded, linear-time generator of restaurant-shaped inputs, with the
   answers the program must give on them.

   The world is a list of restaurants. Names come in groups of three
   with three distinct cuisines, so [name] alone is never a key; every
   restaurant has its own street; 5% of the R copies lost their street;
   each side holds 80% of the restaurants. R is (name, cuisine, street)
   keyed on (name, cuisine); S is (name, speciality, county) keyed on
   (name, speciality). Every random choice comes from one
   [Random.State] made from the seed, so a seed fixes the inputs. *)

module Json = Eid_store.Json

type family =
  | Entity_rules
      (** per restaurant [name & street -> speciality] and
          [street -> county], plus the 30 [speciality -> cuisine] rules;
          K_Ext = name, cuisine, speciality *)
  | Cuisine_rules
      (** only the 30 [speciality -> cuisine] rules; K_Ext = name,
          cuisine *)

let key_of_family = function
  | Entity_rules -> [ "name"; "cuisine"; "speciality" ]
  | Cuisine_rules -> [ "name"; "cuisine" ]

let cuisines =
  [| "Chinese"; "Indian"; "Greek"; "Italian"; "Mexican"; "Thai"; "French";
     "Japanese"; "Korean"; "Turkish" |]

(* Three specialities per cuisine: 30 [speciality -> cuisine] rules. *)
let specs_per_cuisine = 3
let speciality c k = cuisines.(c) ^ String.make 1 (Char.chr (65 + k))
let n_counties = 20

type entity = {
  name : string;
  cuisine : int;
  spec : int;
  street : string;
  county : string;
  in_r : bool;
  in_s : bool;
  null_street : bool;  (** the R copy lost its street *)
}

let cuisine_of e = cuisines.(e.cuisine)
let speciality_of e = speciality e.cuisine e.spec

let entities ~rng n =
  let int k = Random.State.int rng k in
  let chance p = Random.State.float rng 1.0 < p in
  (* A seed-dependent prefix varies the strings (and their hashes)
     between seeds, not just the choices. *)
  let salt = String.init 3 (fun _ -> Char.chr (97 + int 26)) in
  let group = [| 0; 0; 0 |] in
  Array.init n (fun i ->
      if i mod 3 = 0 then begin
        (* three distinct cuisines for the three homonyms *)
        let a = int 10 in
        let b = (a + 1 + int 9) mod 10 in
        let rec third () =
          let c = int 10 in
          if c = a || c = b then third () else c
        in
        group.(0) <- a;
        group.(1) <- b;
        group.(2) <- third ()
      end;
      let in_r = chance 0.8 in
      let in_s = chance 0.8 in
      {
        name = Printf.sprintf "%s%d" (String.capitalize_ascii salt) (i / 3);
        cuisine = group.(i mod 3);
        spec = int specs_per_cuisine;
        street = Printf.sprintf "St%d%s" i salt;
        county = Printf.sprintf "County%d" (int n_counties);
        in_r;
        in_s;
        null_street = in_r && chance 0.05;
      })

(* The extended-key join pairs the two copies of a restaurant exactly
   when both exist and R can reach every K_Ext attribute: under
   [Entity_rules] R derives speciality from its street, so a NULL street
   leaves the row unmatched. *)
let matchable family e =
  e.in_r && e.in_s && (family = Cuisine_rules || not e.null_street)

(* Canonical form of a matching-table entry: R key, then S key. *)
let pair_line e =
  String.concat " " [ e.name; cuisine_of e; e.name; speciality_of e ]

let rule_lines family es =
  let cuisine_rules =
    List.concat
      (List.init (Array.length cuisines) (fun c ->
           List.init specs_per_cuisine (fun k ->
               Printf.sprintf "speciality = %s -> cuisine = %s" (speciality c k)
                 cuisines.(c))))
  in
  match family with
  | Cuisine_rules -> cuisine_rules
  | Entity_rules ->
      cuisine_rules
      @ List.concat_map
          (fun e ->
            [
              Printf.sprintf "name = %s & street = %s -> speciality = %s" e.name
                e.street (speciality_of e);
              Printf.sprintf "street = %s -> county = %s" e.street e.county;
            ])
          (Array.to_list es)

let r_attrs = "name,cuisine,street"
let s_attrs = "name,speciality,county"
let r_key = "name,cuisine"
let s_key = "name,speciality"

(* ---- batch inputs ---- *)

type batch = {
  r_csv : string;
  s_csv : string;
  rules : string;
  expected : string;  (** one canonical pair line per expected match *)
  key : string list;
  r_rows : int;
  s_rows : int;
  n_rules : int;
  n_pairs : int;
}

let write_batch ~dir ~seed ~family ~entities:n =
  let rng = Random.State.make [| seed; 1 |] in
  let es = entities ~rng n in
  let path f = Filename.concat dir f in
  let csv file header row keep =
    let rows = ref 0 in
    Out_channel.with_open_bin (path file) (fun oc ->
        Out_channel.output_string oc (header ^ "\n");
        Array.iter
          (fun e ->
            if keep e then begin
              incr rows;
              Out_channel.output_string oc (row e ^ "\n")
            end)
          es);
    !rows
  in
  let r_rows =
    csv "r.csv" r_attrs
      (fun e ->
        String.concat ","
          [ e.name; cuisine_of e; (if e.null_street then "" else e.street) ])
      (fun e -> e.in_r)
  in
  let s_rows =
    csv "s.csv" s_attrs
      (fun e -> String.concat "," [ e.name; speciality_of e; e.county ])
      (fun e -> e.in_s)
  in
  let rules = rule_lines family es in
  Measure.write_lines (path "rules.ilfd") rules;
  let pairs =
    Array.fold_right
      (fun e acc -> if matchable family e then pair_line e :: acc else acc)
      es []
  in
  Measure.write_lines (path "expected_pairs.txt") pairs;
  {
    r_csv = path "r.csv";
    s_csv = path "s.csv";
    rules = path "rules.ilfd";
    expected = path "expected_pairs.txt";
    key = key_of_family family;
    r_rows;
    s_rows;
    n_rules = List.length rules;
    n_pairs = List.length pairs;
  }

(* ---- serve inputs ---- *)

(* What a response must say. Written next to the request stream, one
   line per request, and read back by the checker. *)
type expect =
  | Insert of string list  (** ok, with these new entries (sorted) *)
  | Conflict  (** ok = false, error = "conflict" *)
  | Record  (** merge, split, rollback: ok with a record *)
  | Entries of int * string  (** identify: entry count, digest *)
  | Stats of int * int * int  (** |R|, |S|, effective matches *)
  | Explained of int  (** explanations, one per derived match *)
  | Done  (** plain ok *)

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let json_of_expect = function
  | Insert l -> Json.Obj [ ("expect", Json.String "insert"); ("matches", strings l) ]
  | Conflict -> Json.Obj [ ("expect", Json.String "conflict") ]
  | Record -> Json.Obj [ ("expect", Json.String "record") ]
  | Entries (n, d) ->
      Json.Obj
        [ ("expect", Json.String "entries"); ("count", Json.Int n);
          ("digest", Json.String d) ]
  | Stats (r, s, m) ->
      Json.Obj
        [ ("expect", Json.String "stats"); ("r", Json.Int r); ("s", Json.Int s);
          ("matches", Json.Int m) ]
  | Explained n ->
      Json.Obj [ ("expect", Json.String "explain"); ("count", Json.Int n) ]
  | Done -> Json.Obj [ ("expect", Json.String "done") ]

let expect_of_line line =
  let int name j =
    match Json.member name j with Some (Json.Int n) -> Some n | _ -> None
  in
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      match Json.string_member "expect" j with
      | Some "insert" -> (
          match Json.member "matches" j with
          | Some (Json.List l) ->
              Some
                (Insert
                   (List.filter_map
                      (function Json.String s -> Some s | _ -> None)
                      l))
          | _ -> None)
      | Some "conflict" -> Some Conflict
      | Some "record" -> Some Record
      | Some "entries" -> (
          match (int "count" j, Json.string_member "digest" j) with
          | Some n, Some d -> Some (Entries (n, d))
          | _ -> None)
      | Some "stats" -> (
          match (int "r" j, int "s" j, int "matches" j) with
          | Some r, Some s, Some m -> Some (Stats (r, s, m))
          | _ -> None)
      | Some "explain" -> Option.map (fun n -> Explained n) (int "count" j)
      | Some "done" -> Some Done
      | _ -> None)

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

type serve = {
  config_args : string list;  (** serve flags that create the store *)
  preload : string;  (** requests that fill the store, then snapshot it *)
  preload_expected : string;
  requests : string;  (** one repetition's measured requests *)
  expected : string;
  serve_rules : int;
  preload_rows : int;
  ready : expect;  (** stats of the preloaded store *)
  final : expect;  (** stats after one repetition *)
}

(* Mix per 100 inserts, by position j of the insert in its block: the
   request(s) sent right after it, plus one explain per 400 inserts. R
   and S rows alternate. *)
let after_insert k =
  let j = ((k - 1) mod 100) + 1 in
  (match j with
  | 20 | 70 -> [ `Identify ]
  | 35 -> [ `Split; `Rollback ]
  | 50 | 100 -> [ `Stats ]
  | 60 -> [ `Merge ]
  | 80 -> [ `Duplicate ]
  | _ -> [])
  @ if k mod 400 = 150 then [ `Explain ] else []

let write_serve ~dir ~seed ~family ~entities:n ~preload ~inserts =
  let rng = Random.State.make [| seed; 2 |] in
  let es = entities ~rng n in
  let path f = Filename.concat dir f in
  let rules = rule_lines family es in
  Measure.write_lines (path "serve.ilfd") rules;
  (* Each side in a seeded random order, then R and S alternating. *)
  let side keep =
    let a =
      Array.of_list
        (List.filter (fun i -> keep es.(i)) (List.init n Fun.id))
    in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let rec alternate rs ss =
    match (rs, ss) with
    | r :: rs, s :: ss -> (`R, r) :: (`S, s) :: alternate rs ss
    | rest, [] -> List.map (fun r -> (`R, r)) rest
    | [], rest -> List.map (fun s -> (`S, s)) rest
  in
  let rows =
    Array.of_list (alternate (side (fun e -> e.in_r)) (side (fun e -> e.in_s)))
  in
  if preload + inserts > Array.length rows then
    invalid_arg
      (Printf.sprintf "serve workload needs %d rows, %d entities give %d"
         (preload + inserts) n (Array.length rows));
  (* The model: what the store holds after each request. *)
  let r_in = Array.make n false and s_in = Array.make n false in
  let derived = Hashtbl.create 1024 and manual = Hashtbl.create 16 in
  let suppressed = Hashtbl.create 16 in
  let n_r = ref 0 and n_s = ref 0 in
  let last_pair = ref None and last_r = ref None and last_s = ref None in
  let r_only = Queue.create () and s_only = Queue.create () in
  let effective () =
    let l =
      Hashtbl.fold
        (fun p () acc -> if Hashtbl.mem suppressed p then acc else p :: acc)
        derived []
    in
    List.sort String.compare
      (Hashtbl.fold (fun p () acc -> p :: acc) manual l)
  in
  let str s = Json.String s in
  let op name rest = Json.to_string (Json.Obj (("op", str name) :: rest)) in
  let r_key_of e =
    Json.Obj [ ("name", str e.name); ("cuisine", str (cuisine_of e)) ]
  in
  let s_key_of e =
    Json.Obj [ ("name", str e.name); ("speciality", str (speciality_of e)) ]
  in
  let insert_line side e ~street ~county =
    match side with
    | `R ->
        op "insert"
          [ ("side", str "r");
            ( "row",
              Json.Obj
                [ ("name", str e.name); ("cuisine", str (cuisine_of e));
                  ("street", street) ] ) ]
    | `S ->
        op "insert"
          [ ("side", str "s");
            ( "row",
              Json.Obj
                [ ("name", str e.name); ("speciality", str (speciality_of e));
                  ("county", county) ] ) ]
  in
  let insert (side, i) =
    let e = es.(i) in
    let street = if e.null_street then Json.Null else str e.street in
    let line = insert_line side e ~street ~county:(str e.county) in
    let partner =
      match side with
      | `R ->
          r_in.(i) <- true;
          incr n_r;
          last_r := Some i;
          if not e.in_s then Queue.push i r_only;
          s_in.(i)
      | `S ->
          s_in.(i) <- true;
          incr n_s;
          last_s := Some i;
          if not e.in_r then Queue.push i s_only;
          r_in.(i)
    in
    if partner && matchable family e then begin
      Hashtbl.replace derived (pair_line e) ();
      last_pair := Some i;
      (line, Insert [ pair_line e ])
    end
    else (line, Insert [])
  in
  let stats () = Stats (!n_r, !n_s, List.length (effective ())) in
  let extra k = function
    | `Identify ->
        let l = effective () in
        [ (op "identify" [], Entries (List.length l, digest l)) ]
    | `Stats -> [ (op "stats" [], stats ()) ]
    | `Explain -> [ (op "explain" [], Explained (Hashtbl.length derived)) ]
    | `Split -> (
        match !last_pair with
        | Some i when not (Hashtbl.mem suppressed (pair_line es.(i))) ->
            let e = es.(i) in
            Hashtbl.replace suppressed (pair_line e) ();
            [ (op "split" [ ("r_key", r_key_of e); ("s_key", s_key_of e) ], Record) ]
        | _ -> [])
    | `Rollback -> (
        (* Undoes the split just sent, if there was one. *)
        match !last_pair with
        | Some i when Hashtbl.mem suppressed (pair_line es.(i)) ->
            Hashtbl.remove suppressed (pair_line es.(i));
            [ (op "rollback" [], Record) ]
        | _ -> [])
    | `Merge ->
        if Queue.is_empty r_only || Queue.is_empty s_only then []
        else
          let r = es.(Queue.pop r_only) and s = es.(Queue.pop s_only) in
          Hashtbl.replace manual
            (String.concat " "
               [ r.name; cuisine_of r; s.name; speciality_of s ])
            ();
          [ (op "merge" [ ("r_key", r_key_of r); ("s_key", s_key_of s) ], Record) ]
    | `Duplicate -> (
        (* The key of a stored row with other values: a key violation. *)
        let dup = str (Printf.sprintf "Dup%d" k) in
        match if k / 100 mod 2 = 0 then (`R, !last_r) else (`S, !last_s) with
        | side, Some i ->
            [ (insert_line side es.(i) ~street:dup ~county:dup, Conflict) ]
        | _, None -> [])
  in
  (* Requests in the order the model applied them. *)
  let run f =
    let acc = ref [] in
    f (fun reqs -> acc := List.rev_append reqs !acc);
    List.rev !acc
  in
  let preload_reqs =
    run (fun emit ->
        for k = 0 to preload - 1 do
          emit [ insert rows.(k) ]
        done;
        emit [ (op "snapshot" [], Done) ])
  in
  let ready = stats () in
  let stream =
    run (fun emit ->
        for k = 1 to inserts do
          emit [ insert rows.(preload + k - 1) ];
          List.iter (fun x -> emit (extra k x)) (after_insert k)
        done)
  in
  let write file reqs =
    Measure.write_lines (path (file ^ ".ndjson")) (List.map fst reqs);
    Measure.write_lines
      (path (file ^ ".expected"))
      (List.map (fun (_, x) -> Json.to_string (json_of_expect x)) reqs)
  in
  write "preload" preload_reqs;
  write "requests" stream;
  {
    config_args =
      [ "--r-schema"; r_attrs; "--s-schema"; s_attrs; "--r-key"; r_key;
        "--s-key"; s_key; "--key"; String.concat "," (key_of_family family);
        "--rules"; path "serve.ilfd" ];
    preload = path "preload.ndjson";
    preload_expected = path "preload.expected";
    requests = path "requests.ndjson";
    expected = path "requests.expected";
    serve_rules = List.length rules;
    preload_rows = preload;
    ready;
    final = stats ();
  }
