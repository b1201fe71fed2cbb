module Relation = Relational.Relation
module Keyed = Relational.Relation.Keyed
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Value = Relational.Value
module Index = Relational.Index

type journal_op =
  | Journal_insert_r of Tuple.t
  | Journal_insert_s of Tuple.t

type t = {
  r : Keyed.t;  (** the base rows, append-only, with a key index *)
  s : Keyed.t;
  key : Extended_key.t;
  ilfds : Ilfd.t list;
  r_plan : Ilfd.Fixpoint.plan;
      (** [ilfds] compiled for R's tuples once per state, never per
          insert; rebuilt by [restore] and [add_ilfd], never dumped *)
  s_plan : Ilfd.Fixpoint.plan;
  mode : Ilfd.Apply.mode;  (** derivation mode, applied to every insert *)
  telemetry : Telemetry.t;  (** sink charged by every insertion *)
  r_target : Schema.t;
  s_target : Schema.t;
  r_ext : Tuple.t list;  (** reverse insertion order *)
  s_ext : Tuple.t list;
  r_index : Index.t;  (** extended R tuples on K_Ext *)
  s_index : Index.t;
  pairs : (Tuple.t * Tuple.t) list;  (** reverse order, extended tuples *)
  unmatched_r : Tuple.t list;
      (** extended R tuples whose K_Ext projection still carries a NULL —
          the same accounting as {!Identify.outcome.unmatched_r}, kept
          incrementally (reverse insertion order) *)
  unmatched_s : Tuple.t list;
  journal : (journal_op -> unit) option;
      (** called after every successful mutation, with the operation
          just applied — the persistence layer's write-ahead hook *)
}

let kext t = Extended_key.attributes t.key

let entry_of t (tr, ts) =
  {
    Matching_table.r_key = Tuple.project t.r_target tr (Keyed.primary_key t.r);
    s_key = Tuple.project t.s_target ts (Keyed.primary_key t.s);
  }

let entries t = List.rev_map (entry_of t) t.pairs

let matching_table t =
  Matching_table.make
    ~r_key_attrs:(Keyed.primary_key t.r)
    ~s_key_attrs:(Keyed.primary_key t.s)
    (entries t)

(* One plan per side, over one compilation of the family. *)
let plans ilfds ~r_source ~r_target ~s_source ~s_target =
  let compiled = Ilfd.Apply.compile ilfds in
  ( Ilfd.Fixpoint.plan ~source:r_source ~target:r_target compiled,
    Ilfd.Fixpoint.plan ~source:s_source ~target:s_target compiled )

let of_outcome ?(mode = Ilfd.Apply.First_rule) ?(telemetry = Telemetry.off)
    ~r ~s ~key ~ilfds (o : Identify.outcome) =
  let r_target = Relation.schema o.r_extended in
  let s_target = Relation.schema o.s_extended in
  let kext = Extended_key.attributes key in
  let r_plan, s_plan =
    plans ilfds ~r_source:(Relation.schema r) ~r_target
      ~s_source:(Relation.schema s) ~s_target
  in
  {
    r = Keyed.of_relation r;
    s = Keyed.of_relation s;
    key;
    ilfds;
    r_plan;
    s_plan;
    mode;
    telemetry;
    r_target;
    s_target;
    r_ext = List.rev (Relation.tuples o.r_extended);
    s_ext = List.rev (Relation.tuples o.s_extended);
    r_index = Index.build o.r_extended kext;
    s_index = Index.build o.s_extended kext;
    pairs = List.rev o.pairs;
    unmatched_r = List.rev o.unmatched_r;
    unmatched_s = List.rev o.unmatched_s;
    journal = None;
  }

let with_journal t journal = { t with journal }
let notify t op = match t.journal with None -> () | Some f -> f op

let create ?(mode = Ilfd.Apply.First_rule) ?(telemetry = Telemetry.off) ~r ~s
    ~key ilfds =
  of_outcome ~mode ~telemetry ~r ~s ~key ~ilfds
    (Identify.run ~mode ~telemetry ~r ~s ~key ilfds)

let derive t plan tuple =
  match
    Ilfd.Fixpoint.extend_tuple ~mode:t.mode ~telemetry:t.telemetry plan tuple
  with
  | Ok derived -> derived
  | Error conflict ->
      (* Only reachable in Check_conflicts mode; surface the witness the
         same way the batch pipeline does. *)
      raise (Ilfd.Apply.Conflict_found conflict)

(* One insertion's worth of accounting; shared by both sides. *)
let count_insert t ~probe_null ~pairs_added =
  Telemetry.incr t.telemetry "incremental.inserts";
  Telemetry.add t.telemetry "incremental.pairs_added" pairs_added;
  if probe_null then Telemetry.incr t.telemetry "incremental.null_key"

(* [r] is [t.r] with [tuple] appended. *)
let extend_r t r tuple =
  let extended, _ = derive t t.r_plan tuple in
  let partners = Index.lookup_tuple t.s_index t.r_target extended in
  (* Index lookup finds S′ tuples equal on K_Ext; both sides must be
     fully non-NULL (the index drops NULL keys, and so does the probe). *)
  let probe_null =
    Tuple.has_null (Tuple.project t.r_target extended (kext t))
  in
  let new_pairs =
    if probe_null then [] else List.map (fun ts -> (extended, ts)) partners
  in
  count_insert t ~probe_null ~pairs_added:(List.length new_pairs);
  let t' =
    {
      t with
      r;
      r_ext = extended :: t.r_ext;
      r_index = Index.add t.r_index extended;
      pairs = List.rev_append new_pairs t.pairs;
      unmatched_r =
        (if probe_null then extended :: t.unmatched_r else t.unmatched_r);
    }
  in
  notify t' (Journal_insert_r tuple);
  (t', List.map (entry_of t') new_pairs)

let extend_s t s tuple =
  let extended, _ = derive t t.s_plan tuple in
  let partners = Index.lookup_tuple t.r_index t.s_target extended in
  let probe_null =
    Tuple.has_null (Tuple.project t.s_target extended (kext t))
  in
  let new_pairs =
    if probe_null then [] else List.map (fun tr -> (tr, extended)) partners
  in
  count_insert t ~probe_null ~pairs_added:(List.length new_pairs);
  let t' =
    {
      t with
      s;
      s_ext = extended :: t.s_ext;
      s_index = Index.add t.s_index extended;
      pairs = List.rev_append new_pairs t.pairs;
      unmatched_s =
        (if probe_null then extended :: t.unmatched_s else t.unmatched_s);
    }
  in
  notify t' (Journal_insert_s tuple);
  (t', List.map (entry_of t') new_pairs)

(* The key check runs before the extension, so a row that both breaks a
   key and has disagreeing derivations reports the key violation. An
   exact duplicate stops there: it changes nothing and is not
   journalled. *)
let insert_r t tuple =
  Telemetry.span t.telemetry "incremental.insert" @@ fun () ->
  match Keyed.add t.r tuple with
  | None -> (t, [])
  | Some r -> extend_r t r tuple

let insert_s t tuple =
  Telemetry.span t.telemetry "incremental.insert" @@ fun () ->
  match Keyed.add t.s tuple with
  | None -> (t, [])
  | Some s -> extend_s t s tuple

let add_ilfd t ilfd =
  (* A knowledge update recomputes wholesale; the journal hook survives
     it (the persistence layer re-snapshots around rule changes). *)
  with_journal
    (create ~mode:t.mode ~telemetry:t.telemetry ~r:(Keyed.to_relation t.r)
       ~s:(Keyed.to_relation t.s) ~key:t.key (t.ilfds @ [ ilfd ]))
    t.journal

let explain t (entry : Matching_table.entry) =
  match
    ( Keyed.find_key t.r (Tuple.to_array entry.r_key),
      Keyed.find_key t.s (Tuple.to_array entry.s_key) )
  with
  | Some tr, Some ts ->
      Some
        (Explain.of_rows ~mode:t.mode ~key:t.key ~r_plan:t.r_plan
           ~s_plan:t.s_plan entry tr ts)
  | _ -> None

let r t = Keyed.to_relation t.r
let s t = Keyed.to_relation t.s
let r_base t = t.r
let s_base t = t.s
let ilfds t = t.ilfds
let unmatched_r t = List.rev t.unmatched_r
let unmatched_s t = List.rev t.unmatched_s

let violations t = Matching_table.uniqueness_violations (matching_table t)

(* ---- snapshot state ----

   The dump is the state without what is derived from the family or
   bound to this process: the compiled plans, the telemetry sink and
   the journal hook. What it holds — the keyed bases with their built
   key maps, the K_Ext indexes (keyed on values, not interned codes),
   schemas, tuples and pairs — is pure data: no closures and no
   interned codes, so it is safe to [Marshal] across processes as it
   is, and [restore] takes it back without rebuilding anything. *)

type dump = {
  d_r : Keyed.t;
  d_s : Keyed.t;
  d_key : Extended_key.t;
  d_mode : Ilfd.Apply.mode;
  d_r_target : Schema.t;
  d_s_target : Schema.t;
  d_r_ext : Tuple.t list;
  d_s_ext : Tuple.t list;
  d_r_index : Index.t;
  d_s_index : Index.t;
  d_pairs : (Tuple.t * Tuple.t) list;
  d_unmatched_r : Tuple.t list;
  d_unmatched_s : Tuple.t list;
}

let dump t =
  {
    d_r = t.r;
    d_s = t.s;
    d_key = t.key;
    d_mode = t.mode;
    d_r_target = t.r_target;
    d_s_target = t.s_target;
    d_r_ext = t.r_ext;
    d_s_ext = t.s_ext;
    d_r_index = t.r_index;
    d_s_index = t.s_index;
    d_pairs = t.pairs;
    d_unmatched_r = t.unmatched_r;
    d_unmatched_s = t.unmatched_s;
  }

let restore ?(telemetry = Telemetry.off) ~ilfds d =
  let r_plan, s_plan =
    plans ilfds ~r_source:(Keyed.schema d.d_r) ~r_target:d.d_r_target
      ~s_source:(Keyed.schema d.d_s) ~s_target:d.d_s_target
  in
  {
    r = d.d_r;
    s = d.d_s;
    key = d.d_key;
    ilfds;
    r_plan;
    s_plan;
    mode = d.d_mode;
    telemetry;
    r_target = d.d_r_target;
    s_target = d.d_s_target;
    r_ext = d.d_r_ext;
    s_ext = d.d_s_ext;
    r_index = d.d_r_index;
    s_index = d.d_s_index;
    pairs = d.d_pairs;
    unmatched_r = d.d_unmatched_r;
    unmatched_s = d.d_unmatched_s;
    journal = None;
  }

let outcome t =
  let mt = matching_table t in
  {
    Identify.r_extended =
      Relation.of_tuples t.r_target
        ~keys:(Keyed.declared_keys t.r)
        (List.rev t.r_ext);
    s_extended =
      Relation.of_tuples t.s_target
        ~keys:(Keyed.declared_keys t.s)
        (List.rev t.s_ext);
    matching_table = mt;
    violations = Matching_table.uniqueness_violations mt;
    pairs = List.rev t.pairs;
    unmatched_r = List.rev t.unmatched_r;
    unmatched_s = List.rev t.unmatched_s;
  }
