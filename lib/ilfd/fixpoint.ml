module V = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Intern = Relational.Intern
module Columnar = Relational.Columnar

(* One group per run of consecutive same-antecedent-signature rules of
   a consequent attribute. Both of its tables are keyed on the match
   codes of the antecedent condition values, in the antecedent's sorted
   condition order, and each is built on first use:
   - [table], for the chase: the storage code the first such rule
     assigns (keep-first insertion preserves First_rule priority inside
     a group; group order preserves it across groups);
   - [trie], for the per-tuple evaluator: every proper prefix of a key,
     zero-padded to the key's length, maps to [Prefix], and a full key
     to every (rule, value, value's match code) it fires, in family
     order. Full keys hold no zero (NULL never matches), so the two
     kinds of entry never collide. *)
type node = Prefix | Leaf of (Def.t * V.t * int) list

type group = {
  sig_ids : int array;  (** chase column per antecedent condition *)
  table : (int array, int) Hashtbl.t Lazy.t;
  trie : (int array, node) Hashtbl.t Lazy.t;
}

type attr_task = {
  col_id : int;  (** chase column of the derived attribute *)
  target_pos : int;  (** target schema position, [-1] for scratch *)
  groups : group list;
  delta_only : bool;
      (** every rule needs an antecedent that can only exist by
          derivation, so classes untouched by earlier rounds can be
          skipped *)
}

type plan = {
  compiled : Apply.compiled;
  source : Schema.t;
  target : Schema.t;
  n_cols : int;  (** chase columns: every attribute any rule mentions *)
  attr_names : string array;  (** chase column -> attribute *)
  col_target : int array;  (** chase column -> target position, or [-1] *)
  key_ids : int array;  (** chase columns initialised from source cells *)
  key_attrs : string array;  (** their source attribute names *)
  key_src : int array;  (** their source positions *)
  groups_of : group list array;
      (** chase column -> its rules' groups, in family order; empty when
          the chase is not exact *)
  top : int array;
      (** the derivable chase columns of the target, in target order:
          the attributes the reference looks up, in its order *)
  target_src : int array;  (** target position -> source position, or [-1] *)
  strata : attr_task array array;
      (** tasks grouped by stratum, in evaluation order; empty when the
          chase is not exact *)
  exact : bool;
      (** the compiled chase replays the recursive engine's First_rule
          answer: the family is acyclic and every rule value has a
          well-defined match class *)
}

exception Cyclic

exception
  Fallback_desync of {
    tuple : Relational.Tuple.t;
    conflict : Apply.conflict;
  }

(* Fault-injection hook for the [Fallback_desync] arm below: in
   First_rule mode the per-class evaluation by construction never
   reports a conflict, so the arm is unreachable in production.
   Tests inject a witness here to prove the arm raises the
   typed exception instead of an anonymous assertion failure. *)
let inject_fallback_conflict : (Relational.Tuple.t -> Apply.conflict option) ref
    =
  ref (fun _ -> None)

let plan ~source ~target c =
  let cons = Apply.consequents c in
  (* Chase column ids, in first-mention order over the (deterministic)
     consequent listing. *)
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
  List.iter
    (fun (attr, rules) ->
      ignore (id_of attr);
      List.iter
        (fun (rule, _) ->
          List.iter
            (fun (cond : Def.condition) -> ignore (id_of cond.attribute))
            (Def.antecedent rule))
        rules)
    cons;
  let n = !n_cols in
  let attr_names = Array.make n "" in
  Hashtbl.iter (fun a i -> attr_names.(i) <- a) ids;
  let rules_of attr = Option.value (List.assoc_opt attr cons) ~default:[] in
  let derivable = Array.make n false in
  List.iter (fun (attr, _) -> derivable.(id_of attr) <- true) cons;
  (* The class key: the mentioned attributes present in both source and
     target. The recursive engine reads nothing else of a tuple, so it
     determines the whole derivation — including a conflict — whatever
     the family. *)
  let target_pos =
    Array.map
      (fun a ->
        match Schema.index_of_opt target a with Some i -> i | None -> -1)
      attr_names
  in
  let is_key =
    Array.mapi
      (fun id a -> target_pos.(id) >= 0 && Schema.mem source a)
      attr_names
  in
  let key_ids =
    Array.of_list
      (List.filter (fun id -> is_key.(id)) (List.init n (fun i -> i)))
  in
  let key_attrs = Array.map (fun id -> attr_names.(id)) key_ids in
  (* Every rule value (antecedent conditions and the derived value) must
     have a well-defined match class, or hash matching could diverge
     from [non_null_eq]; one ambiguous numeric disqualifies the chase. *)
  let safe v = Intern.match_code (Intern.code v) <> Intern.unsafe_match in
  let all_safe =
    List.for_all
      (fun (_, rules) ->
        List.for_all
          (fun (rule, v) ->
            safe v
            && List.for_all
                 (fun (cond : Def.condition) -> safe cond.value)
                 (Def.antecedent rule))
          rules)
      cons
  in
  (* Stratify: a derivable attribute sits one level above the deepest
     attribute any of its rules reads. A cycle means demand order (which
     the recursive engine's cut semantics depends on) cannot be replayed
     by rounds — no exact chase. *)
  let strat = Array.make n (-1) in
  let rec depth id =
    if strat.(id) = -2 then raise Cyclic
    else if strat.(id) >= 0 then strat.(id)
    else if not derivable.(id) then begin
      strat.(id) <- 0;
      0
    end
    else begin
      strat.(id) <- -2;
      let d =
        List.fold_left
          (fun acc (rule, _) ->
            List.fold_left
              (fun acc (cond : Def.condition) ->
                max acc (depth (id_of cond.attribute)))
              acc (Def.antecedent rule))
          0
          (rules_of attr_names.(id))
      in
      strat.(id) <- d + 1;
      d + 1
    end
  in
  let exact =
    all_safe
    &&
    match
      for id = 0 to n - 1 do
        ignore (depth id)
      done
    with
    | () -> true
    | exception Cyclic -> false
  in
  let match_of v = Intern.match_code (Intern.code v) in
  let group_of sig_attrs rules =
    let key_of rule =
      Array.of_list
        (List.map
           (fun (c : Def.condition) -> match_of c.value)
           (Def.antecedent rule))
    in
    let table =
      lazy
        (let table = Hashtbl.create 8 in
         List.iter
           (fun (rule, v) ->
             let k = key_of rule in
             if not (Hashtbl.mem table k) then
               Hashtbl.add table k (Intern.code v))
           rules;
         table)
    in
    let trie =
      lazy
        (let trie = Hashtbl.create 8 in
         List.iter
           (fun (rule, v) ->
             let k = key_of rule in
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
             Hashtbl.replace trie k (Leaf ((rule, v, match_of v) :: fired)))
           rules;
         Hashtbl.filter_map_inplace
           (fun _ node ->
             match node with
             | Leaf l -> Some (Leaf (List.rev l))
             | Prefix -> Some Prefix)
           trie;
         trie)
    in
    { sig_ids = Array.of_list (List.map id_of sig_attrs); table; trie }
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
        group_of s same :: groups_of rest
  in
  let groups_by_col = Array.make n [] in
  if exact then
    List.iter
      (fun (attr, rules) -> groups_by_col.(id_of attr) <- groups_of rules)
      cons;
  let top =
    List.filter_map
      (fun (a : Schema.attribute) ->
        match Hashtbl.find_opt ids a.name with
        | Some id when derivable.(id) -> Some id
        | _ -> None)
      (Schema.attributes target)
  in
  let p =
    {
      compiled = c;
      source;
      target;
      n_cols = n;
      attr_names;
      col_target = target_pos;
      key_ids;
      key_attrs;
      key_src = Array.map (fun a -> Schema.index_of source a) key_attrs;
      groups_of = groups_by_col;
      top = Array.of_list top;
      target_src =
        Array.of_list
          (List.map
             (fun (a : Schema.attribute) ->
               match Schema.index_of_opt source a.name with
               | Some i -> i
               | None -> -1)
             (Schema.attributes target));
      strata = [||];
      exact;
    }
  in
  if not exact then p
  else
    let task_of (attr, rules) =
      let id = id_of attr in
      let delta_only =
        rules <> []
        && List.for_all
             (fun (rule, _) ->
               List.exists
                 (fun (c : Def.condition) ->
                   let b = id_of c.attribute in
                   derivable.(b) && not is_key.(b))
                 (Def.antecedent rule))
             rules
      in
      ( strat.(id),
        {
          col_id = id;
          target_pos = target_pos.(id);
          groups = groups_by_col.(id);
          delta_only;
        } )
    in
    let tasks = List.map task_of cons in
    let max_stratum = List.fold_left (fun m (s, _) -> max m s) 0 tasks in
    let strata =
      Array.init max_stratum (fun k ->
          Array.of_list
            (List.filter_map
               (fun (s, t) -> if s = k + 1 then Some t else None)
               tasks))
    in
    { p with strata }

let supported ~source ~target ilfds =
  (plan ~source ~target (Apply.compile ilfds)).exact

let plan_target p = p.target

exception Conflict_exn of Apply.conflict

(* The per-tuple evaluator: the recursive engine's answer — its tuple,
   its derivation list in its order, its conflict witness — read off the
   group tries instead of a scan of every candidate rule.

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

   [on_scan] is called when the tuple takes the scan instead: the plan
   is not exact (a cyclic family, or an ambiguous numeric rule value),
   or a source cell the family reads is a numeric above 2^53, whose
   match class is ambiguous. *)
let eval ~on_scan p ~mode tuple =
  let n = p.n_cols in
  let codes = Array.make n 0 in
  let resolved = Bytes.make n '\000' in
  let safe = ref p.exact in
  Array.iteri
    (fun k id ->
      let v = Tuple.nth tuple p.key_src.(k) in
      if not (V.is_null v) then begin
        let m = Intern.match_code (Intern.code v) in
        if m = Intern.unsafe_match then safe := false;
        codes.(id) <- m;
        Bytes.set resolved id '\001'
      end)
    p.key_ids;
  if not !safe then begin
    on_scan ();
    Apply.extend_tuple_compiled ~mode p.source tuple ~target:p.target
      p.compiled
  end
  else
    let cells =
      Array.map
        (fun i -> if i >= 0 then Tuple.nth tuple i else V.Null)
        p.target_src
    in
    let used = ref [] in
    let rec resolve id =
      if Bytes.get resolved id = '\001' then codes.(id)
      else begin
        Bytes.set resolved id '\001';
        (match derive id with
        | None -> ()
        | Some (rule, v, m) ->
            codes.(id) <- m;
            let pos = p.col_target.(id) in
            if pos >= 0 then cells.(pos) <- v;
            used :=
              { Apply.attribute = p.attr_names.(id); value = v; rule }
              :: !used);
        codes.(id)
      end
    (* The rules of [g] the tuple fires, after making the group's first
       lookups. *)
    and walk g =
      let m = Array.length g.sig_ids in
      let key = Array.make m 0 in
      let trie = Lazy.force g.trie in
      let rec go i =
        if i = m then
          match Hashtbl.find_opt trie key with Some (Leaf l) -> l | _ -> []
        else
          let c = resolve g.sig_ids.(i) in
          if c = 0 then []
          else begin
            key.(i) <- c;
            if i = m - 1 || Hashtbl.mem trie key then go (i + 1) else []
          end
      in
      go 0
    (* Every group is walked, as the reference's [List.filter] tests
       every candidate; the first rule fired wins. *)
    and derive id =
      let fired = List.map walk p.groups_of.(id) in
      match mode with
      | Apply.First_rule -> (
          match List.find_opt (fun l -> l <> []) fired with
          | Some (first :: _) -> Some first
          | _ -> None)
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
    | () -> Ok (Tuple.of_array p.target cells, List.rev !used)
    | exception Conflict_exn c -> Error c

let extend_tuple ?(mode = Apply.First_rule) ?(telemetry = Telemetry.off) p
    tuple =
  eval p ~mode tuple ~on_scan:(fun () ->
      Telemetry.incr telemetry "ilfd.fixpoint.fallback_classes")

let run plan ~mode r ~target ~telemetry =
  let cr = Relation.columnar r in
  let n_rows = Columnar.length cr in
  let nkeys = Array.length plan.key_ids in
  let key_cols = Array.map (fun a -> Columnar.column cr a) plan.key_attrs in
  (* Derivation classes: one per distinct coded projection onto the
     source-initialised chase columns — those cells alone determine the
     whole derivation, so all rows of a class share one. Class ids follow
     first-row order. *)
  let class_of_row = Array.make n_rows 0 in
  let tbl : (int array, int) Hashtbl.t = Hashtbl.create (max 16 n_rows) in
  let reps = ref [] in
  let count = ref 0 in
  for i = 0 to n_rows - 1 do
    let k = Array.init nkeys (fun p -> key_cols.(p).(i)) in
    match Hashtbl.find_opt tbl k with
    | Some cid -> class_of_row.(i) <- cid
    | None ->
        let cid = !count in
        incr count;
        Hashtbl.add tbl k cid;
        reps := (cid, k, i) :: !reps;
        class_of_row.(i) <- cid
  done;
  let n_classes = !count in
  let class_key = Array.make n_classes [||] in
  let rep_row = Array.make n_classes 0 in
  List.iter
    (fun (cid, k, i) ->
      class_key.(cid) <- k;
      rep_row.(cid) <- i)
    !reps;
  (* Chase cells, column-major over classes; 0 = NULL/underived. Classes
     whose base cells carry ambiguous numerics cannot be hash-matched
     exactly and run the per-tuple evaluator on their representative row
     (which scans for them) — as does every class when the chase is not
     exact, or in Check_conflicts mode, whose conflict witness depends on
     the recursive engine's demand order. *)
  let per_class = mode = Apply.Check_conflicts || not plan.exact in
  let strata = if per_class then [||] else plan.strata in
  let state = Array.init plan.n_cols (fun _ -> Array.make n_classes 0) in
  let fallback = Array.make n_classes per_class in
  for cid = 0 to n_classes - 1 do
    let k = class_key.(cid) in
    for p = 0 to nkeys - 1 do
      state.(plan.key_ids.(p)).(cid) <- k.(p);
      if k.(p) <> 0 && Intern.match_code k.(p) = Intern.unsafe_match then
        fallback.(cid) <- true
    done
  done;
  let deltas = Array.make n_classes [] in
  let changed = Bytes.make (max 1 n_classes) '\000' in
  let changed_list = ref [] in
  let facts = ref 0 in
  let mark cid =
    if Bytes.get changed cid = '\000' then begin
      Bytes.set changed cid '\001';
      changed_list := cid :: !changed_list
    end
  in
  (* The semi-naive chase: strata in dependency order; within a class,
     groups in rule order and the first table hit wins — exactly the
     value the recursive engine's first applicable rule would assign,
     because every antecedent cell it reads was fixed by an earlier
     stratum. *)
  Array.iter
    (fun stratum ->
      Array.iter
        (fun task ->
          let col = state.(task.col_id) in
          let scan cid =
            if (not fallback.(cid)) && col.(cid) = 0 then
              let rec try_groups = function
                | [] -> ()
                | g :: rest ->
                    let m = Array.length g.sig_ids in
                    let k = Array.make m 0 in
                    let rec fill p =
                      p = m
                      ||
                      let cell = state.(g.sig_ids.(p)).(cid) in
                      cell <> 0
                      && begin
                           k.(p) <- Intern.match_code cell;
                           fill (p + 1)
                         end
                    in
                    if fill 0 then
                      match Hashtbl.find_opt (Lazy.force g.table) k with
                      | Some vcode ->
                          col.(cid) <- vcode;
                          incr facts;
                          if task.target_pos >= 0 then
                            deltas.(cid) <-
                              (task.target_pos, vcode) :: deltas.(cid);
                          mark cid
                      | None -> try_groups rest
                    else try_groups rest
              in
              try_groups task.groups
          in
          if task.delta_only then List.iter scan !changed_list
          else
            for cid = 0 to n_classes - 1 do
              scan cid
            done)
        stratum)
    strata;
  (* Ascending class ids visit classes in first-row order, so the first
     class that conflicts holds the row the serial engine raises on. *)
  let scanned = ref 0 in
  let tuples = lazy (Array.of_list (Relation.tuples r)) in
  for cid = 0 to n_classes - 1 do
    if fallback.(cid) then begin
      let t = (Lazy.force tuples).(rep_row.(cid)) in
      let extended =
        match !inject_fallback_conflict t with
        | Some conflict -> Error conflict
        | None -> eval plan ~mode t ~on_scan:(fun () -> incr scanned)
      in
      match extended with
      | Error conflict when mode = Apply.Check_conflicts ->
          raise (Apply.Conflict_found conflict)
      | Error conflict ->
          (* First_rule mode never conflicts; a witness here means the
             evaluator and the plan disagree about the mode, so surface
             the rule and tuple rather than dying anonymously. *)
          raise (Fallback_desync { tuple = t; conflict })
      | Ok (ext, _) ->
          let delta = ref [] in
          Array.iteri
            (fun ti src ->
              let base = if src >= 0 then Tuple.nth t src else V.Null in
              let v = Tuple.nth ext ti in
              if V.is_null base && not (V.is_null v) then
                delta := (ti, Intern.code v) :: !delta)
            plan.target_src;
          deltas.(cid) <- !delta;
          facts := !facts + List.length !delta
    end
  done;
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry "ilfd.tuples" n_rows;
    Telemetry.add telemetry "ilfd.fixpoint.classes" n_classes;
    Telemetry.add telemetry "ilfd.fixpoint.rounds" (Array.length strata);
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
