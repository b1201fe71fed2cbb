module V = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Intern = Relational.Intern
module Columnar = Relational.Columnar
module Code_table = Relational.Code_table

type plan = {
  compiled : Apply.compiled;
  source : Schema.t;
  target : Schema.t;
  col_target : int array;  (** column -> target position, or [-1] *)
  key_ids : int array;  (** columns initialised from source cells *)
  key_attrs : string array;  (** their source attribute names *)
  key_src : int array;  (** their source positions *)
  top : int array;
      (** the derivable columns of the target, in target order: the
          attributes the reference looks up, in its order *)
  target_src : int array;  (** target position -> source position, or [-1] *)
  (* The evaluator's scratch, reset per tuple or class. *)
  codes : int array;
      (** column -> its match code once resolved (0: NULL, or nothing
          derived), [-1] until then *)
  fired : (Def.t * V.t * int) list array;
      (** column -> the leaves whose head derived it *)
  order : int array;  (** the derived columns, in derivation order *)
  mutable n_derived : int;
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

(* The class key: the mentioned attributes present in both source and
   target. The recursive engine reads nothing else of a tuple, so it
   determines the whole derivation — including a conflict — whatever the
   family. *)
let plan ~source ~target c =
  let columns = Apply.columns c and groups = Apply.groups c in
  let n = Array.length columns in
  let col_target =
    Array.map
      (fun a ->
        match Schema.index_of_opt target a with Some i -> i | None -> -1)
      columns
  in
  let key_ids =
    Array.of_list
      (List.filter
         (fun id -> col_target.(id) >= 0 && Schema.mem source columns.(id))
         (List.init n Fun.id))
  in
  let key_attrs = Array.map (fun id -> columns.(id)) key_ids in
  let target_col = Array.make (Schema.arity target) (-1) in
  Array.iteri (fun id pos -> if pos >= 0 then target_col.(pos) <- id) col_target;
  let top =
    List.filter
      (fun id -> id >= 0 && match groups.(id) with [] -> false | _ -> true)
      (Array.to_list target_col)
  in
  {
    compiled = c;
    source;
    target;
    col_target;
    key_ids;
    key_attrs;
    key_src = Array.map (fun a -> Schema.index_of source a) key_attrs;
    top = Array.of_list top;
    target_src =
      Array.of_list
        (List.map
           (fun name ->
             Option.value (Schema.index_of_opt source name) ~default:(-1))
           (Schema.names target));
    codes = Array.make n (-1);
    fired = Array.make n [];
    order = Array.make n 0;
    n_derived = 0;
  }

let plan_target p = p.target

exception Conflict_exn of Apply.conflict

(* The evaluator: the recursive engine's answer for a tuple whose key
   columns hold their match codes in [p.codes] (0 = NULL, every other
   column -1) — its derivations in its order, left in [p.order] and
   [p.fired], or its conflict witness, raised — read off the group tries
   instead of a scan of every candidate rule. Scratch attributes are
   derived too. The functions are closed, so a class allocates nothing
   here.

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
   attribute is resolved once: no re-entry is possible without a cycle,
   so no walk re-enters a trie and overwrites its probe row. Only called
   on an acyclic family. *)
let rec resolve p mode id =
  if p.codes.(id) < 0 then begin
    p.codes.(id) <- 0;
    match derive p mode id (Apply.groups p.compiled).(id) [] [] with
    | [] -> ()
    | (_, _, code) :: _ as fired ->
        p.codes.(id) <- Intern.match_code code;
        p.fired.(id) <- fired;
        p.order.(p.n_derived) <- id;
        p.n_derived <- p.n_derived + 1
  end;
  p.codes.(id)

(* The rules of a group the tuple fires, after making the group's first
   lookups from position [i] of its signature on. *)
and walk p mode (g : Apply.group) t i =
  if i = Array.length g.sig_ids then Apply.leaves t
  else
    let c = resolve p mode g.sig_ids.(i) in
    if c <> 0 && Apply.prefix_found t i c then walk p mode g t (i + 1) else []

(* Every group is walked, as the reference's [List.filter] tests every
   candidate, before the attribute's own conflict is raised. [first]:
   the leaves whose head is the first rule fired, the [First_rule]
   answer; [witness]: in [Check_conflicts] mode, the leaves whose head is
   the first later rule fired with another value. *)
and derive p mode id groups first witness =
  match groups with
  | [] -> (
      match (first, witness) with
      | (_, v, _) :: _, (rule, second, _) :: _ ->
          raise
            (Conflict_exn
               {
                 attribute = (Apply.columns p.compiled).(id);
                 first = v;
                 second;
                 rule;
               })
      | _ -> first)
  | g :: rest -> (
      let fired = walk p mode g (Lazy.force g.trie) 0 in
      match (mode, first, witness) with
      | Apply.First_rule, [], _ -> derive p mode id rest fired witness
      | Apply.First_rule, _ :: _, _ | Apply.Check_conflicts, _, _ :: _ ->
          derive p mode id rest first witness
      | Apply.Check_conflicts, [], [] -> (
          match fired with
          | (_, v, _) :: later ->
              derive p mode id rest fired (disagreeing v later)
          | [] -> derive p mode id rest first witness)
      | Apply.Check_conflicts, (_, v, _) :: _, [] ->
          derive p mode id rest first (disagreeing v fired))

(* The leaves from the first one whose value differs from [v]. *)
and disagreeing v = function
  | (_, v', _) :: rest as l -> if V.equal v' v then disagreeing v rest else l
  | [] -> []

(* The scratch cleared for the next tuple or class, whose key column [k]
   then holds storage code [c] ([set_key]). *)
let reset p =
  Array.fill p.codes 0 (Array.length p.codes) (-1);
  p.n_derived <- 0

let set_key p k c = if c <> 0 then p.codes.(p.key_ids.(k)) <- Intern.match_code c

let eval p mode =
  for i = 0 to Array.length p.top - 1 do
    ignore (resolve p mode p.top.(i))
  done

(* The target cells derived by the last [eval], as (target position,
   storage code), in derivation order. *)
let rec delta p k acc =
  if k < 0 then acc
  else
    let id = p.order.(k) in
    let pos = p.col_target.(id) in
    match p.fired.(id) with
    | (_, _, code) :: _ when pos >= 0 -> delta p (k - 1) ((pos, code) :: acc)
    | _ -> delta p (k - 1) acc

(* The same derivations, as records, each target cell written into
   [cells]. *)
let rec derivations p cells k acc =
  if k < 0 then acc
  else
    let id = p.order.(k) in
    match p.fired.(id) with
    | (rule, value, _) :: _ ->
        let pos = p.col_target.(id) in
        if pos >= 0 then cells.(pos) <- value;
        derivations p cells (k - 1)
          ({ Apply.attribute = (Apply.columns p.compiled).(id); value; rule }
          :: acc)
    | [] -> derivations p cells (k - 1) acc

let scan p ~mode tuple =
  Apply.extend_tuple_compiled ~mode p.source tuple ~target:p.target p.compiled

let extend_tuple ?(mode = Apply.First_rule) ?(telemetry = Telemetry.off) p
    tuple =
  if not (Apply.acyclic p.compiled) then begin
    Telemetry.incr telemetry "ilfd.fixpoint.fallback_classes";
    scan p ~mode tuple
  end
  else begin
    reset p;
    Array.iteri (fun k i -> set_key p k (Intern.code (Tuple.nth tuple i))) p.key_src;
    match eval p mode with
    | exception Conflict_exn c -> Error c
    | () ->
        let cells =
          Array.map
            (fun i -> if i >= 0 then Tuple.nth tuple i else V.Null)
            p.target_src
        in
        let derivations = derivations p cells (p.n_derived - 1) [] in
        Ok (Tuple.of_array p.target cells, derivations)
  end

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
  let exact = Apply.acyclic plan.compiled in
  (* Ascending class ids visit classes in first-row order, so the first
     class that conflicts holds the row the reference raises on. Only a
     class that takes the scan, on a cyclic family, decodes a row: its
     representative. *)
  Array.iteri
    (fun cid rep ->
      if not exact then begin
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
      else begin
        reset plan;
        for k = 0 to Array.length key_cols - 1 do
          set_key plan k key_cols.(k).(rep)
        done;
        (try eval plan mode
         with Conflict_exn conflict -> raise (Apply.Conflict_found conflict));
        facts := !facts + plan.n_derived;
        deltas.(cid) <- delta plan (plan.n_derived - 1) []
      end)
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
