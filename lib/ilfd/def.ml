module V = Relational.Value

type condition = { attribute : string; value : V.t }

type t = { antecedent : condition list; consequent : condition list }

exception Ill_formed of string

let condition attribute value = { attribute; value }

(* Conditions already in strict attribute order, as a parsed rule's
   usually are, are kept as they are. *)
let rec ordered = function
  | a :: (b :: _ as rest) ->
      String.compare a.attribute b.attribute < 0 && ordered rest
  | [ _ ] | [] -> true

let normalise side conds =
  let rec dedup = function
    | a :: b :: rest when String.equal a.attribute b.attribute ->
        if V.equal a.value b.value then dedup (a :: rest)
        else
          raise
            (Ill_formed
               (Printf.sprintf "%s gives conflicting values for %s" side
                  a.attribute))
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  let checked =
    if ordered conds then conds
    else
      dedup (List.sort (fun a b -> String.compare a.attribute b.attribute) conds)
  in
  List.iter
    (fun c ->
      if V.is_null c.value then
        raise
          (Ill_formed
             (Printf.sprintf "%s binds %s to NULL — NULL means unknown and \
                              cannot appear in a semantic constraint"
                side c.attribute)))
    checked;
  checked

let make ante cons =
  if cons = [] then raise (Ill_formed "empty consequent");
  {
    antecedent = normalise "antecedent" ante;
    consequent = normalise "consequent" cons;
  }

let make1 ante attr v = make ante [ condition attr v ]

let antecedent i = i.antecedent
let consequent i = i.consequent

let condition_mem c conds =
  List.exists
    (fun d -> String.equal c.attribute d.attribute && V.equal c.value d.value)
    conds

let is_trivial i = List.for_all (fun c -> condition_mem c i.antecedent) i.consequent

let attributes i =
  List.map (fun c -> c.attribute) (i.antecedent @ i.consequent)
  |> List.sort_uniq String.compare

let antecedent_holds schema tuple i =
  List.for_all
    (fun c ->
      match Relational.Tuple.get_opt schema tuple c.attribute with
      | Some v -> V.non_null_eq v c.value
      | None -> false)
    i.antecedent

let satisfies ?(strict = false) schema tuple i =
  (not (antecedent_holds schema tuple i))
  || List.for_all
       (fun c ->
         match Relational.Tuple.get_opt schema tuple c.attribute with
         | None -> true
         | Some v ->
             if V.is_null v then not strict else V.non_null_eq v c.value)
       i.consequent

let satisfied_by_relation ?strict r i =
  Relational.Relation.for_all
    (fun t -> satisfies ?strict (Relational.Relation.schema r) t i)
    r

let compare_condition a b =
  let c = String.compare a.attribute b.attribute in
  if c <> 0 then c else V.compare a.value b.value

let compare a b =
  let c = List.compare compare_condition a.antecedent b.antecedent in
  if c <> 0 then c
  else List.compare compare_condition a.consequent b.consequent

let equal a b = compare a b = 0

(* --- concrete syntax ------------------------------------------------ *)

(* The parser reads the line in place, over bounds, in closed functions:
   it allocates what the rule keeps — its conditions, its values and,
   the first time it is read, an attribute name — and nothing else. A
   side's conditions are separated by [sep] ('&' on the left of the
   arrow, ',' on the right); a piece runs to the next [sep], the next
   "->" or the end of the line, and a quoted value's text is one token. *)

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let is_arrow src i =
  i + 1 < String.length src && src.[i] = '-' && src.[i + 1] = '>'

let rec skip_spaces src i stop =
  if i < stop && is_space src.[i] then skip_spaces src (i + 1) stop else i

let rec trim_end src start stop =
  if stop > start && is_space src.[stop - 1] then trim_end src start (stop - 1)
  else stop

(* [src.[start, stop)] without the whitespace [String.trim] strips. *)
let trimmed src start stop =
  let start = skip_spaces src start stop in
  String.sub src start (trim_end src start stop - start)

(* The first [sep], "->" or end of the line at or after [i] — or, when
   [eq], the first '=' before them. One byte is read per step: this loop
   is most of the parse. *)
let rec scan src i sep eq =
  if i >= String.length src then i
  else
    let ch = src.[i] in
    if ch = sep || (eq && ch = '=') || (ch = '-' && is_arrow src i) then i
    else scan src (i + 1) sep eq

(* The quote closing a quoted value whose text starts at [i]: the next
   '"' that is not doubled, or [-1]. *)
let rec closing src i =
  if i >= String.length src then -1
  else if src.[i] <> '"' then closing src (i + 1)
  else if i + 1 < String.length src && src.[i + 1] = '"' then closing src (i + 2)
  else i

(* The end of the value that starts at [i] (its [sep], "->" or the end of
   the line). A value whose first non-blank byte is a quote is quoted,
   and only spaces may follow its closing quote. *)
let value_end src i sep =
  let n = String.length src in
  let q = skip_spaces src i n in
  if q < n && src.[q] = '"' then begin
    let c = closing src (q + 1) in
    if c < 0 then
      raise
        (Ill_formed
           (Printf.sprintf "unterminated quoted value %s" (String.sub src q (n - q))));
    let e = skip_spaces src (c + 1) n in
    if not (e = n || src.[e] = sep || is_arrow src e) then
      raise
        (Ill_formed
           (Printf.sprintf "unexpected text after the quoted value %s"
              (String.sub src q (c + 1 - q))));
    e
  end
  else scan src q sep false

(* The end of the side that starts at [i]: its "->", or the end of the
   line, found piece by piece. *)
let rec pieces_end src i sep =
  let j = scan src i sep true in
  let e =
    if j < String.length src && src.[j] = '=' then value_end src (j + 1) sep
    else j
  in
  if e >= String.length src || is_arrow src e then e
  else pieces_end src (e + 1) sep

(* The text of a quoted value, [src.[i, c)], each doubled quote read as
   one. *)
let unquote src i c =
  let rec quotes k acc =
    if k >= c then acc
    else if src.[k] = '"' then quotes (k + 2) (acc + 1)
    else quotes (k + 1) acc
  in
  let d = quotes i 0 in
  if d = 0 then String.sub src i (c - i)
  else begin
    let b = Bytes.create (c - i - d) in
    let rec copy k o =
      if k < c then begin
        Bytes.set b o src.[k];
        copy (if src.[k] = '"' then k + 2 else k + 1) (o + 1)
      end
    in
    copy i 0;
    Bytes.unsafe_to_string b
  end

(* The value of the piece's [src.[i, e)] after its '='. *)
let value_of src i e =
  let q = skip_spaces src i e in
  if q < e && src.[q] = '"' then V.String (unquote src (q + 1) (closing src (q + 1)))
  else V.of_csv_string (trimmed src q e)

(* The attribute names read so far, so that every rule read shares one
   copy of each (the program runs on one domain). A family naming more
   attributes than [known] holds still parses; its later names are not
   shared. *)
let known = Array.make 64 ""
let n_known = ref 0

let rec same_text src i name k =
  k = String.length name || (src.[i + k] = name.[k] && same_text src i name (k + 1))

let rec find_name src i len k =
  if k = !n_known then begin
    let name = String.sub src i len in
    if k < Array.length known then begin
      known.(k) <- name;
      incr n_known
    end;
    name
  end
  else
    let name = known.(k) in
    if String.length name = len && same_text src i name 0 then name
    else find_name src i len (k + 1)

(* The condition [src.[i, e)], whose '=' is at [j]. *)
let parse_condition src i j e =
  let a = skip_spaces src i j in
  let a_len = trim_end src a j - a in
  let value = value_of src (j + 1) e in
  if a_len = 0 then raise (Ill_formed "empty attribute name");
  let attribute = find_name src a a_len 0 in
  if V.is_null value then
    raise (Ill_formed (Printf.sprintf "condition on %s has no value" attribute));
  condition attribute value

(* The conditions of the side that starts at [i], in order; a blank
   piece is skipped. *)
let rec conditions src i sep =
  let j = scan src i sep true in
  let has_eq = j < String.length src && src.[j] = '=' in
  let e = if has_eq then value_end src (j + 1) sep else j in
  let last = e >= String.length src || is_arrow src e in
  if has_eq then
    let c = parse_condition src i j e in
    c :: (if last then [] else conditions src (e + 1) sep)
  else if skip_spaces src i e = e then
    if last then [] else conditions src (e + 1) sep
  else
    raise
      (Ill_formed
         (Printf.sprintf "expected attribute = value, got %S" (trimmed src i e)))

(* The right-hand side is read first: when both sides are malformed, its
   error is the one reported. *)
let parse src =
  let n = String.length src in
  let a = pieces_end src 0 '&' in
  if a >= n || pieces_end src (a + 2) ',' < n then
    raise (Ill_formed (Printf.sprintf "expected exactly one -> in %S" src));
  let cons = conditions src (a + 2) ',' in
  let ante = conditions src 0 '&' in
  make ante cons

let rec has_arrow s i =
  i + 1 < String.length s && (is_arrow s i || has_arrow s (i + 1))

(* Whether [s], written bare as a value of a side separated by [sep],
   reads back as [String s]. *)
let reads_back sep s =
  let n = String.length s in
  n > 0
  && (not (is_space s.[0]))
  && (not (is_space s.[n - 1]))
  && s.[0] <> '"'
  && (not (String.contains s sep))
  && (not (has_arrow s 0))
  && match V.of_csv_string s with V.String _ -> true | _ -> false

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      if ch = '"' then Buffer.add_char b '"';
      Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A float with the digits it needs to read back as itself, and still as
   a float. *)
let float_text f =
  let s = string_of_float f in
  if Float.equal (float_of_string s) f then s
  else valid_float_lexem (Printf.sprintf "%.17g" f)

let value_text sep = function
  | V.String s when not (reads_back sep s) -> quote s
  | V.Float f -> float_text f
  | v -> V.to_string v

let pp_condition sep ppf c =
  Format.fprintf ppf "%s=%s" c.attribute (value_text sep c.value)

let pp ppf i =
  let pp_side sep sep_text ppf conds =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf sep_text)
      (pp_condition sep) ppf conds
  in
  Format.fprintf ppf "%a -> %a" (pp_side '&' " & ") i.antecedent
    (pp_side ',' ", ") i.consequent

let to_string i = Format.asprintf "%a" pp i
