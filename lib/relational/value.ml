type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string

type truth = True | False | Unknown

let null = Null
let int i = Int i
let float f = Float f
let bool b = Bool b
let string s = String s

let is_null = function Null -> true | Int _ | Float _ | Bool _ | String _ -> false

let equal a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | String x, String y -> String.equal x y
  | (Null | Int _ | Float _ | Bool _ | String _), _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4

(* Int/Float pairs order numerically, but a numeric tie falls through to
   constructor rank: [compare] must agree with [equal] (which never
   equates across constructors), or sorted structures and hashtables
   disagree on mixed-type keys — [List.sort_uniq] would collapse
   [Int 1] and [Float 1.] while [Hashtbl] keeps both. Numeric matching
   semantics live in [cmp3]/[eq3], not here. *)
let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | String x, String y -> String.compare x y
  | Int x, Float y ->
      let c = Float.compare (float_of_int x) y in
      if c <> 0 then c else -1
  | Float x, Int y ->
      let c = Float.compare x (float_of_int y) in
      if c <> 0 then c else 1
  | _, _ -> Int.compare (rank a) (rank b)

let truth_of_bool b = if b then True else False

(* [x] against [y], exactly. Rounding [x] to a float is monotone, so a
   strict answer on the rounded value is the exact one. A tie means [y]
   is integral and within one rounding of an int: at 2^62 or above it
   exceeds every int; below, [Float.to_int] is exact. *)
let cmp_int_float x y =
  let c = Float.compare (float_of_int x) y in
  if c <> 0 then c
  else if y >= 0x1p62 then -1
  else Int.compare x (Float.to_int y)

(* Numeric comparison across Int/Float is meaningful and exact; other
   cross-type comparisons are Unknown so that a mistyped predicate
   cannot silently match. *)
let cmp3 a b =
  match a, b with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (Int.compare x y)
  | Float x, Float y -> Some (Float.compare x y)
  | Int x, Float y -> Some (cmp_int_float x y)
  | Float x, Int y -> Some (- cmp_int_float y x)
  | Bool x, Bool y -> Some (Bool.compare x y)
  | String x, String y -> Some (String.compare x y)
  | (Int _ | Float _ | Bool _ | String _), _ -> None

let eq3 a b =
  match a, b with
  | Null, _ | _, Null -> Unknown
  | _ -> ( match cmp3 a b with Some c -> truth_of_bool (c = 0) | None -> False)

let not3 = function True -> False | False -> True | Unknown -> Unknown
let ne3 a b = not3 (eq3 a b)

let rel3 f a b = match cmp3 a b with Some c -> truth_of_bool (f c 0) | None -> Unknown

let lt3 a b = rel3 ( < ) a b
let le3 a b = rel3 ( <= ) a b
let gt3 a b = rel3 ( > ) a b
let ge3 a b = rel3 ( >= ) a b

let non_null_eq a b =
  (not (is_null a)) && (not (is_null b)) && eq3 a b = True

let and3 a b =
  match a, b with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let or3 a b =
  match a, b with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let is_true = function True -> true | False | Unknown -> false

let to_string = function
  | Null -> "null"
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Bool b -> string_of_bool b
  | String s -> s

(* Every cell the first-byte test below cannot decide. *)
let parse_cell s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "null" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> (
            match String.lowercase_ascii s with
            | "true" -> Bool true
            | "false" -> Bool false
            | _ -> String s))

(* [s] equals [word], which is lowercase, ignoring ASCII case; closed,
   so it allocates nothing. *)
let rec equal_caseless_from s word i =
  i = String.length s
  || Char.lowercase_ascii s.[i] = word.[i]
     && equal_caseless_from s word (i + 1)

let equal_caseless s word =
  String.length s = String.length word && equal_caseless_from s word 0

(* A cell that starts with an ASCII letter and does not end in a byte
   [String.trim] strips is decided by its first byte: [int_of_string]
   needs a sign or a digit first, and [float_of_string] (which drops
   underscores, then calls strtod) accepts a leading letter only in
   nan, inf and infinity. So only n, i (NULL, NaN, infinity; underscores
   make n_an a float) and t, f (booleans) need a closer look, and n and
   i take the general path. *)
let of_csv_string s =
  let n = String.length s in
  if n = 0 then Null
  else
    match s.[n - 1] with
    | ' ' | '\t' | '\n' | '\r' | '\012' -> parse_cell s
    | _ -> (
        match s.[0] with
        | 't' | 'T' -> if equal_caseless s "true" then Bool true else String s
        | 'f' | 'F' ->
            if equal_caseless s "false" then Bool false else String s
        | 'n' | 'N' | 'i' | 'I' -> parse_cell s
        | 'a' .. 'z' | 'A' .. 'Z' -> String s
        | _ -> parse_cell s)

let pp ppf v = Format.pp_print_string ppf (to_string v)

let truth_to_string = function True -> "true" | False -> "false" | Unknown -> "unknown"
let pp_truth ppf t = Format.pp_print_string ppf (truth_to_string t)

type ty = TInt | TFloat | TBool | TString

let type_of = function
  | Null -> None
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Bool _ -> Some TBool
  | String _ -> Some TString

let ty_to_string = function
  | TInt -> "int"
  | TFloat -> "float"
  | TBool -> "bool"
  | TString -> "string"

let hash = function
  | Null -> 0
  | Int i -> Hashtbl.hash (1, i)
  | Float f -> Hashtbl.hash (2, f)
  | Bool b -> Hashtbl.hash (3, b)
  | String s -> Hashtbl.hash (4, s)
