module V = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Intern = Relational.Intern
module Columnar = Relational.Columnar
module Code_table = Relational.Code_table

(* One group per run of consecutive same-antecedent-signature rules of
   a consequent attribute. Its trie is keyed on the match codes of the
   antecedent condition values, in the antecedent's sorted condition
   order, and built on first use: every proper prefix of a key,
   zero-padded to the key's length, maps to [Prefix], and a full key to
   every (rule, value, value's storage code) it fires, in family order.
   Full keys hold no zero (NULL never matches), so the two kinds of
   entry never collide. *)
type node = Prefix | Leaf of (Def.t * V.t * int) list

type group = {
  sig_ids : int array;  (** column per antecedent condition *)
  trie : (int array, node) Hashtbl.t Lazy.t;
}

type plan = {
  compiled : Apply.compiled;
  source : Schema.t;
  target : Schema.t;
  n_cols : int;  (** columns: every attribute any rule mentions *)
  attr_names : string array;  (** column -> attribute *)
  col_target : int array;  (** column -> target position, or [-1] *)
  key_ids : int array;  (** columns initialised from source cells *)
  key_attrs : string array;  (** their source attribute names *)
  key_src : int array;  (** their source positions *)
  groups_of : group list array;
      (** column -> its rules' groups, in family order *)
  top : int array;
      (** the derivable columns of the target, in target order: the
          attributes the reference looks up, in its order *)
  target_src : int array;  (** target position -> source position, or [-1] *)
  exact : bool;  (** the tries replay the reference: the family is acyclic *)
}

exception
  Fallback_desync of {
    tuple : Relational.Tuple.t;
    conflict : Apply.conflict;
  }

(* Fault-injection hook for the [Fallback_desync] arm below: in
   First_rule mode the scan by construction never reports a conflict,
   so the arm is unreachable in production. Tests inject a witness here
   to prove the arm raises the typed exception instead of an anonymous
   assertion failure. *)
let inject_fallback_conflict : (Relational.Tuple.t -> Apply.conflict option) ref
    =
  ref (fun _ -> None)

let plan ~source ~target c =
  let cons = Apply.consequents c in
  (* Column ids, in first-mention order over the (deterministic)
     consequent listing: each attribute, then its groups' signatures. *)
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let n_cols = ref 0 in
  let id_of attr =
    match Hashtbl.find_opt ids attr with
    | Some i -> i
    | None ->
        let i = !n_cols in
        incr n_cols;
        Hashtbl.add ids attr i;
        i
  in
  let group_of sig_attrs rules =
    let trie =
      lazy
        (let trie = Hashtbl.create 8 in
         List.iter
           (fun (rule, v) ->
             let k =
               Array.of_list
                 (List.map
                    (fun (c : Def.condition) ->
                      Intern.match_code (Intern.code c.value))
                    (Def.antecedent rule))
             in
             let m = Array.length k in
             for p = 0 to m - 2 do
               let prefix =
                 Array.init m (fun i -> if i <= p then k.(i) else 0)
               in
               if not (Hashtbl.mem trie prefix) then
                 Hashtbl.add trie prefix Prefix
             done;
             let fired =
               match Hashtbl.find_opt trie k with Some (Leaf l) -> l | _ -> []
             in
             (* Prepend now, reverse once below: family order. *)
             Hashtbl.replace trie k (Leaf ((rule, v, Intern.code v) :: fired)))
           rules;
         Hashtbl.filter_map_inplace
           (fun _ node ->
             match node with
             | Leaf l -> Some (Leaf (List.rev l))
             | Prefix -> Some Prefix)
           trie;
         trie)
    in
    { sig_ids = Array.of_list (List.map id_of sig_attrs); trie }
  in
  let signature rule =
    List.map (fun (c : Def.condition) -> c.attribute) (Def.antecedent rule)
  in
  let rec groups_of = function
    | [] -> []
    | ((rule, _) :: _) as rules ->
        let s = signature rule in
        let same, rest =
          let rec span acc = function
            | (r', v') :: tl when signature r' = s -> span ((r', v') :: acc) tl
            | tl -> (List.rev acc, tl)
          in
          span [] rules
        in
        let g = group_of s same in
        g :: groups_of rest
  in
  let grouped =
    List.map
      (fun (attr, rules) ->
        let id = id_of attr in
        (id, groups_of rules))
      cons
  in
  let n = !n_cols in
  let attr_names = Array.make n "" in
  Hashtbl.iter (fun a i -> attr_names.(i) <- a) ids;
  let groups_by_col = Array.make n [] in
  List.iter (fun (id, groups) -> groups_by_col.(id) <- groups) grouped;
  (* The class key: the mentioned attributes present in both source and
     target. The recursive engine reads nothing else of a tuple, so it
     determines the whole derivation — including a conflict — whatever
     the family. *)
  let col_target =
    Array.map
      (fun a ->
        match Schema.index_of_opt target a with Some i -> i | None -> -1)
      attr_names
  in
  let key_ids =
    Array.of_list
      (List.filter
         (fun id -> col_target.(id) >= 0 && Schema.mem source attr_names.(id))
         (List.init n Fun.id))
  in
  let key_attrs = Array.map (fun id -> attr_names.(id)) key_ids in
  (* On a cycle a lookup can re-enter an attribute in progress, and the
     demand order the reference's cut semantics depend on is no longer a
     walk over the tries. A group's rules all read its signature. *)
  let visit = Bytes.make n '\000' in
  let rec acyclic id =
    match Bytes.get visit id with
    | '\002' -> true
    | '\001' -> false
    | _ ->
        Bytes.set visit id '\001';
        List.for_all (fun g -> Array.for_all acyclic g.sig_ids)
          groups_by_col.(id)
        && begin
             Bytes.set visit id '\002';
             true
           end
  in
  let exact = List.for_all acyclic (List.init n Fun.id) in
  let top =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt ids name with
        | Some id when groups_by_col.(id) <> [] -> Some id
        | _ -> None)
      (Schema.names target)
  in
  {
    compiled = c;
    source;
    target;
    n_cols = n;
    attr_names;
    col_target;
    key_ids;
    key_attrs;
    key_src = Array.map (fun a -> Schema.index_of source a) key_attrs;
    groups_of = groups_by_col;
    top = Array.of_list top;
    target_src =
      Array.of_list
        (List.map
           (fun name ->
             Option.value (Schema.index_of_opt source name) ~default:(-1))
           (Schema.names target));
    exact;
  }

let supported ~source ~target ilfds =
  (plan ~source ~target (Apply.compile ilfds)).exact

let plan_target p = p.target

exception Conflict_exn of Apply.conflict

(* The evaluator: the recursive engine's answer for a tuple whose key
   codes are [key] (0 = NULL) — its derivations in its order, its
   conflict witness — read off the group tries instead of a scan of
   every candidate rule. Each derivation is (column, (rule, value,
   value's storage code)), scratch attributes included.

   The reference derives an attribute by testing every candidate rule's
   antecedent in family order ([List.filter]), each condition in order
   until one fails ([List.for_all]); each lookup of an unresolved
   attribute derives it, and a derivation is recorded when it completes.
   On an acyclic family every lookup after the first returns the same
   value and derives nothing, so only the first lookup of each attribute
   has an effect, and a group's rules make their first lookups in
   signature order: the group's first rule looks up its first
   attribute, and the rules reach the attribute at position p + 1 iff
   some rule's first p + 1 values match the tuple's — a prefix the trie
   holds. Walking each group's trie, in group order, therefore makes the
   reference's first lookups in the reference's order, and the rules it
   finds applicable are the leaves reached, in family order. A derived
   attribute is resolved once: no re-entry is possible without a cycle.
   Only called on an exact plan. *)
let eval p ~mode key =
  (* A column's match code once resolved (0: NULL, or nothing derived);
     -1 until then. *)
  let codes = Array.make p.n_cols (-1) in
  Array.iteri
    (fun k id -> if key.(k) <> 0 then codes.(id) <- Intern.match_code key.(k))
    p.key_ids;
  let used = ref [] in
  let rec resolve id =
    if codes.(id) >= 0 then codes.(id)
    else begin
      codes.(id) <- 0;
      (match derive id with
      | None -> ()
      | Some ((_, _, code) as fired) ->
          codes.(id) <- Intern.match_code code;
          used := (id, fired) :: !used);
      codes.(id)
    end
  (* The rules of [g] the tuple fires, after making the group's first
     lookups. *)
  and walk g =
    let m = Array.length g.sig_ids in
    let probe = Array.make m 0 in
    let trie = Lazy.force g.trie in
    let rec go i =
      if i = m then
        match Hashtbl.find_opt trie probe with Some (Leaf l) -> l | _ -> []
      else
        let c = resolve g.sig_ids.(i) in
        if c = 0 then []
        else begin
          probe.(i) <- c;
          if i = m - 1 || Hashtbl.mem trie probe then go (i + 1) else []
        end
    in
    go 0
  (* Every group is walked, as the reference's [List.filter] tests
     every candidate; the first rule fired wins. *)
  and derive id =
    let fired = List.map walk p.groups_of.(id) in
    match mode with
    | Apply.First_rule ->
        List.find_map (function first :: _ -> Some first | [] -> None) fired
    | Apply.Check_conflicts -> (
        match List.concat fired with
        | [] -> None
        | ((_, v, _) as first) :: rest -> (
            match
              List.find_opt (fun (_, v', _) -> not (V.equal v' v)) rest
            with
            | None -> Some first
            | Some (rule, second, _) ->
                raise
                  (Conflict_exn
                     {
                       attribute = p.attr_names.(id);
                       first = v;
                       second;
                       rule;
                     })))
  in
  match Array.iter (fun id -> ignore (resolve id)) p.top with
  | () -> Ok (List.rev !used)
  | exception Conflict_exn c -> Error c

let scan p ~mode tuple =
  Apply.extend_tuple_compiled ~mode p.source tuple ~target:p.target p.compiled

let extend_tuple ?(mode = Apply.First_rule) ?(telemetry = Telemetry.off) p
    tuple =
  if not p.exact then begin
    Telemetry.incr telemetry "ilfd.fixpoint.fallback_classes";
    scan p ~mode tuple
  end
  else
    let key = Array.map (fun i -> Intern.code (Tuple.nth tuple i)) p.key_src in
    match eval p ~mode key with
    | Error c -> Error c
    | Ok ds ->
        let cells =
          Array.map
            (fun i -> if i >= 0 then Tuple.nth tuple i else V.Null)
            p.target_src
        in
        let derivations =
          List.map
            (fun (id, (rule, v, _)) ->
              let pos = p.col_target.(id) in
              if pos >= 0 then cells.(pos) <- v;
              { Apply.attribute = p.attr_names.(id); value = v; rule })
            ds
        in
        Ok (Tuple.of_array p.target cells, derivations)

let run plan ~mode r ~target ~telemetry =
  let cr = Relation.columnar r in
  let n_rows = Columnar.length cr in
  let key_cols = Array.map (fun a -> Columnar.column cr a) plan.key_attrs in
  (* Derivation classes: one per distinct coded projection onto the
     source-initialised columns — those cells alone determine the whole
     derivation, so all rows of a class share one. Class ids follow
     first-row order. *)
  let class_of_row, firsts = Code_table.classes key_cols n_rows in
  let n_classes = Array.length firsts in
  let deltas = Array.make n_classes [] in
  let facts = ref 0 in
  let scanned = ref 0 in
  (* Ascending class ids visit classes in first-row order, so the first
     class that conflicts holds the row the reference raises on. Only a
     class that takes the scan, on a cyclic family, decodes a row: its
     representative. *)
  Array.iteri
    (fun cid rep ->
      if not plan.exact then begin
        incr scanned;
        let t = Relation.row r rep in
        let extended =
          match !inject_fallback_conflict t with
          | Some conflict -> Error conflict
          | None -> scan plan ~mode t
        in
        match extended with
        | Error conflict when mode = Apply.Check_conflicts ->
            raise (Apply.Conflict_found conflict)
        | Error conflict ->
            (* First_rule mode never conflicts; a witness here means the
               scan and the plan disagree about the mode, so surface the
               rule and tuple rather than dying anonymously. *)
            raise (Fallback_desync { tuple = t; conflict })
        | Ok (ext, ds) ->
            facts := !facts + List.length ds;
            Array.iteri
              (fun ti src ->
                let base = if src >= 0 then Tuple.nth t src else V.Null in
                let v = Tuple.nth ext ti in
                if V.is_null base && not (V.is_null v) then
                  deltas.(cid) <- (ti, Intern.code v) :: deltas.(cid))
              plan.target_src
      end
      else
        let key = Array.map (fun col -> col.(rep)) key_cols in
        match eval plan ~mode key with
        | Error conflict -> raise (Apply.Conflict_found conflict)
        | Ok ds ->
            facts := !facts + List.length ds;
            deltas.(cid) <-
              List.filter_map
                (fun (id, (_, _, code)) ->
                  let pos = plan.col_target.(id) in
                  if pos >= 0 then Some (pos, code) else None)
                ds)
    firsts;
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry "ilfd.tuples" n_rows;
    Telemetry.add telemetry "ilfd.fixpoint.classes" n_classes;
    Telemetry.add telemetry "ilfd.fixpoint.delta_facts" !facts;
    Telemetry.add telemetry "ilfd.fixpoint.fallback_classes" !scanned;
    let dlen = Array.map List.length deltas in
    let derived = ref 0 in
    for i = 0 to n_rows - 1 do
      derived := !derived + dlen.(class_of_row.(i))
    done;
    Telemetry.add telemetry "ilfd.derivations" !derived
  end;
  (* Rows: base cells plus the class delta. Every delta cell fills a NULL
     base cell, so when [r] has a declared key and [target] keeps its
     attributes, [Relation.extend] inherits [r]'s set semantics and coded
     view rather than re-establishing them. *)
  Relation.extend r target ~classes:class_of_row ~derived:deltas

let extend_relation ?(mode = Apply.First_rule) ?(telemetry = Telemetry.off) r
    ~target compiled =
  Telemetry.span telemetry "ilfd.extend" @@ fun () ->
  run (plan ~source:(Relation.schema r) ~target compiled) ~mode r ~target
    ~telemetry
