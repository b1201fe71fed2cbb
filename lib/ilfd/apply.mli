(** Deriving missing attribute values with ILFDs — the step that extends
    R to R′ (Section 4.2, first two bullets).

    The engine mirrors the Prolog prototype's evaluation: for a missing
    attribute, candidate ILFDs are tried in the given order and {e the
    first applicable one wins} (the prototype puts a cut at the end of
    each ILFD rule); antecedent conditions may themselves refer to
    attributes that need deriving, which happens recursively with a cycle
    guard (SLD would loop; we fail that path instead). Attributes that no
    ILFD can derive default to NULL, like the prototype's trailing
    [r_spec(Rid, null).] facts. *)

type conflict = {
  attribute : string;
  first : Relational.Value.t;  (** value from the earliest applicable rule *)
  second : Relational.Value.t;  (** a later, disagreeing derivation *)
  rule : Def.t;  (** the disagreeing rule *)
}

type mode =
  | First_rule  (** cut semantics; later disagreeing rules are ignored *)
  | Check_conflicts
      (** evaluate all applicable rules; report a disagreement *)

type derivation = {
  attribute : string;  (** what was derived (may be a scratch attribute) *)
  value : Relational.Value.t;
  rule : Def.t;  (** the ILFD that produced it *)
}

(** A precompiled ILFD family: a consequent-attribute index built once,
    so deriving an attribute consults only the rules that can produce it
    instead of scanning the whole family per attribute per tuple, and
    the layout {!Fixpoint}'s evaluator reads (below). *)
type compiled

(** [compile ilfds] builds the index and the layout in time linear in
    the family (one pass, each consequent list reversed once at the
    end); the tries are built later, each on its first walk. Production
    callers compile once per family and build their {!Fixpoint.plan}s
    on it: a batch run for both sides ({!Fixpoint.extend_relation}), a
    serve store for every insert, replayed WAL record and explained
    pair, an explain report for every pair. Every plan made from one
    compiled family shares its groups and tries. *)
val compile : Def.t list -> compiled
val compiled_rules : compiled -> Def.t list

(** [consequents c] — the consequent-attribute index: for each derivable
    attribute (sorted by name), the rules that can produce it with the
    value each would assign, in family order (First_rule priority).
    The scan below and the layout's groups are built on it. *)
val consequents : compiled -> (string * (Def.t * Relational.Value.t) list) list

(** {2 The evaluator's layout}

    Every attribute the family mentions is a {e column}, numbered in
    first-mention order over {!consequents}. Consecutive rules of one
    consequent attribute with the same antecedent attributes form a
    {e group}, with a trie keyed on the match codes
    ({!Relational.Intern.match_code}) of their antecedent values, in the
    antecedent's (sorted) condition order. *)

(** A group's trie, built from {!Relational.Code_table}s over the
    group's rule rows, with one scratch {e probe row} a walk writes a
    tuple's codes into, one position per antecedent condition. *)
type trie

(** A group: the column of each antecedent condition, and its trie,
    built (and its values interned) the first time it is forced. *)
type group = private { sig_ids : int array; trie : trie Lazy.t }

(** [prefix_found t i c] writes match code [c] at position [i] of [t]'s
    probe row, then tells whether some rule's first [i + 1] antecedent
    codes are the probe row's: always [true] at the last position, which
    {!leaves} looks up whole. *)
val prefix_found : trie -> int -> int -> bool

(** [leaves t] — every [(rule, value, value's storage code)] whose
    antecedent codes are the whole probe row, in family order, or [[]].
    A zero-condition antecedent has no position: every rule of its group
    is a leaf of the empty probe row. *)
val leaves : trie -> (Def.t * Relational.Value.t * int) list

(** [columns c] — column -> attribute. *)
val columns : compiled -> string array

(** [groups c] — column -> the groups of the rules deriving it, in
    family order ([[]] for a column no rule derives). *)
val groups : compiled -> group list array

(** [acyclic c] — no attribute's derivation can re-enter it: the
    condition under which the tries replay the scan exactly. *)
val acyclic : compiled -> bool

(** [extend_tuple_compiled ?mode schema tuple ~target c] — as
    {!extend_tuple}, against a precompiled family: the scan, which tests
    every candidate rule of an attribute. It is the reference
    {!Fixpoint.extend_tuple} is held to; in production only that
    evaluator's fallback calls it. *)
val extend_tuple_compiled :
  ?mode:mode ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  target:Relational.Schema.t ->
  compiled ->
  (Relational.Tuple.t * derivation list, conflict) result

(** [extend_tuple ?mode schema tuple ~target ilfds] widens [tuple] from
    [schema] to [target] (a superset of [schema]'s attributes; extra
    attributes start as NULL), then derives what it can. Returns the
    extended tuple and the per-attribute derivations performed (in
    derivation order, including scratch intermediates), or the first
    conflict in [Check_conflicts] mode. A one-shot convenience that
    compiles [ilfds] on every call, for tests and checker references;
    production code holds a {!Fixpoint.plan} and calls
    {!Fixpoint.extend_tuple}. *)
val extend_tuple :
  ?mode:mode ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  target:Relational.Schema.t ->
  Def.t list ->
  (Relational.Tuple.t * derivation list, conflict) result

(** A derivation conflict surfaced as an exception — by
    {!Fixpoint.extend_relation} and every caller that extends in
    [Check_conflicts] mode — carrying the first conflicting tuple's
    witness. *)
exception Conflict_found of conflict

(** [derivable_attributes schema ilfds] — attributes some ILFD could in
    principle contribute to tuples of [schema]. *)
val derivable_attributes : Relational.Schema.t -> Def.t list -> string list

val pp_conflict : Format.formatter -> conflict -> unit
