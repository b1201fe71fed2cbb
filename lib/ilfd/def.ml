module V = Relational.Value

type condition = { attribute : string; value : V.t }

type t = { antecedent : condition list; consequent : condition list }

exception Ill_formed of string

let condition attribute value = { attribute; value }

let normalise side conds =
  let sorted =
    List.sort (fun a b -> String.compare a.attribute b.attribute) conds
  in
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
  let checked = dedup sorted in
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

(* The parser reads the line in place, over bounds: a piece is copied
   out only as an attribute name or a value. *)

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [src.[start, stop)] without the whitespace [String.trim] strips. *)
let trim src start stop =
  let start = ref start and stop = ref stop in
  while !start < !stop && is_space src.[!start] do
    incr start
  done;
  while !stop > !start && is_space src.[!stop - 1] do
    decr stop
  done;
  (!start, !stop)

let sub src (start, stop) = String.sub src start (stop - start)

let parse_value src start stop =
  let start, stop = trim src start stop in
  if stop - start >= 2 && src.[start] = '"' && src.[stop - 1] = '"' then
    V.String (String.sub src (start + 1) (stop - start - 2))
  else V.of_csv_string (sub src (start, stop))

let parse_condition src start stop =
  match String.index_from_opt src start '=' with
  | Some i when i < stop ->
      let attribute = sub src (trim src start i) in
      let value = parse_value src (i + 1) stop in
      if attribute = "" then raise (Ill_formed "empty attribute name");
      if V.is_null value then
        raise (Ill_formed (Printf.sprintf "condition on %s has no value" attribute));
      condition attribute value
  | _ ->
      raise
        (Ill_formed
           (Printf.sprintf "expected attribute = value, got %S"
              (sub src (trim src start stop))))

(* The conditions of [src.[start, stop)], pieces separated by [sep], in
   order; a blank piece is skipped. *)
let conditions src start stop sep =
  let rec pieces start acc =
    let stop' =
      match String.index_from_opt src start sep with
      | Some i when i < stop -> i
      | _ -> stop
    in
    let acc =
      let a, b = trim src start stop' in
      if a = b then acc else parse_condition src start stop' :: acc
    in
    if stop' = stop then List.rev acc else pieces (stop' + 1) acc
  in
  pieces start []

(* The position of the first "->" at or after [i], or [-1]. *)
let rec arrow src i =
  match String.index_from_opt src i '-' with
  | Some j when j + 1 < String.length src ->
      if src.[j + 1] = '>' then j else arrow src (j + 1)
  | _ -> -1

(* The right-hand side is read first: when both sides are malformed, its
   error is the one reported. *)
let parse src =
  let a = arrow src 0 in
  if a < 0 || arrow src (a + 2) >= 0 then
    raise (Ill_formed (Printf.sprintf "expected exactly one -> in %S" src));
  let cons = conditions src (a + 2) (String.length src) ',' in
  let ante = conditions src 0 a '&' in
  make ante cons

let pp_condition ppf c =
  Format.fprintf ppf "%s=%s" c.attribute (V.to_string c.value)

let pp ppf i =
  let pp_side ppf sep conds =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf sep)
      pp_condition ppf conds
  in
  Format.fprintf ppf "%a -> %a"
    (fun ppf -> pp_side ppf " & ")
    i.antecedent
    (fun ppf -> pp_side ppf ", ")
    i.consequent

let to_string i = Format.asprintf "%a" pp i
