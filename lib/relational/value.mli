(** Atomic attribute values with SQL-style [Null] and three-valued logic.

    Every cell of a tuple holds a [Value.t]. Comparisons involving [Null]
    are {e unknown} under three-valued logic, which the paper relies on: a
    NULL extended-key attribute must never be equated with another NULL
    (the Prolog prototype's [non_null_eq] predicate). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string

(** Truth values of three-valued (Kleene) logic. *)
type truth = True | False | Unknown

val null : t
val int : int -> t
val float : float -> t
val bool : bool -> t
val string : string -> t

val is_null : t -> bool

(** [equal a b] is structural equality treating [Null] as equal to [Null].
    This is the {e tuple-identity} notion used for set operations, not the
    matching notion; use {!eq3} for matching semantics. *)
val equal : t -> t -> bool

(** Total order used for sorting and set operations, {e compatible with}
    {!equal}: [compare a b = 0] iff [equal a b]. [Null] sorts first and
    values of different constructors are ordered by constructor rank,
    except that [Int]/[Float] pairs are ordered numerically with a
    numeric tie broken by rank ([Int] before [Float]) — so [compare
    (Int 1) (Float 1.)] is negative, not [0], keeping sorted structures
    and hash tables in agreement on mixed-type keys. Use {!eq3}/{!cmp3}
    for the numeric {e matching} semantics in which [Int 1] and
    [Float 1.] are the same quantity. *)
val compare : t -> t -> int

(** Three-valued equality: [Unknown] whenever either side is [Null].
    An [Int] and a [Float] compare as the numbers they denote, exactly,
    at every magnitude: [Int 1] equals [Float 1.], [Int (2⁵³ + 1)] does
    not equal [Float 2⁵³], so equality is an equivalence on non-NULL
    values. *)
val eq3 : t -> t -> truth

(** Three-valued comparison for [<, <=, >, >=]; [Unknown] on [Null] or on
    incomparable constructors. [Int]/[Float] pairs order exactly, as
    for {!eq3}. *)
val lt3 : t -> t -> truth

val le3 : t -> t -> truth
val gt3 : t -> t -> truth
val ge3 : t -> t -> truth

(** Three-valued inequality, the negation of {!eq3}. *)
val ne3 : t -> t -> truth

(** [non_null_eq a b] is [true] iff both values are non-NULL and equal:
    the paper prototype's [non_null_eq] predicate. *)
val non_null_eq : t -> t -> bool

val and3 : truth -> truth -> truth
val or3 : truth -> truth -> truth
val not3 : truth -> truth

(** [is_true t] is [true] only for [True] (SQL WHERE semantics). *)
val is_true : truth -> bool

val truth_of_bool : bool -> truth

(** Renders [Null] as ["null"], strings verbatim, numbers in OCaml syntax. *)
val to_string : t -> string

(** Parses a CSV cell, trimmed of the whitespace [String.trim] strips:
    [""] and ["null"] in any case → [Null]; then OCaml's integer syntax
    ([int_of_string]: [42], [-7], [0x1F], [0b101], [1_000]) → [Int];
    then OCaml's float syntax ([float_of_string]: [4.5], [1e5], [-0.],
    [0x1p3], [nan], [inf], [infinity], any case, underscores allowed, so
    [n_an] too) → [Float]; then ["true"]/["false"] in any case →
    [Bool]; anything else → [String], trimmed. A cell that starts with
    an ASCII letter other than [n], [i], [t], [f] (either case) and ends
    in no stripped whitespace is a [String] without trying the number
    parsers. *)
val of_csv_string : string -> t

val pp : Format.formatter -> t -> unit
val pp_truth : Format.formatter -> truth -> unit
val truth_to_string : truth -> string

(** The type tag of a non-NULL value's constructor. *)
type ty = TInt | TFloat | TBool | TString

val type_of : t -> ty option
(** [type_of v] is [None] for [Null]. *)

val ty_to_string : ty -> string

val hash : t -> int
