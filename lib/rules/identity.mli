(** Identity rules:
    [∀ e1,e2 ∈ E, P(e1.A1,…,e2.B1,…) → (e1 ≡ e2)].

    Well-formedness (paper, Section 3.2): for each [e1.Ai] or [e2.Ai]
    appearing in [P], [P] must imply [e1.Ai = e2.Ai]. We verify this with
    a sound syntactic procedure: the equality closure of [P]'s [=]-atoms
    (congruence over attributes and constants) must put [e1.A] and
    [e2.A] in one class for every mentioned attribute [A]. The paper's
    non-example r2 — [(e1.cuisine = "Chinese") → (e1 ≡ e2)] — is rejected
    exactly because [e2.cuisine] is unconstrained. *)

type t = private { name : string; atoms : Atom.t list }

exception Ill_formed of string

(** [make ~name atoms] validates and builds.
    @raise Ill_formed with an explanation if the implication condition
    fails or [atoms] is empty. *)
val make : name:string -> Atom.t list -> t

(** [validate atoms] — [Ok ()] or [Error reason]. *)
val validate : Atom.t list -> (unit, string) result

(** [of_attribute_equalities ~name attrs] — the identity rule
    [⋀ (e1.A = e2.A) → e1 ≡ e2]; with [attrs] an extended key this is the
    paper's {e extended key equivalence}. *)
val of_attribute_equalities : name:string -> string list -> t

(** [applies rule s1 t1 s2 t2] — [True] only when every atom is [True]
    (so a NULL on a mentioned attribute yields [Unknown], never a match:
    the [non_null_eq] behaviour). *)
val applies :
  t ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  Relational.Value.truth

(** Attributes mentioned on each side: [(left, right)], deduplicated. *)
val attributes : t -> string list * string list

val pp : Format.formatter -> t -> unit
