type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

exception Fail of string

let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

(* ---- parsing: plain recursive descent over the string ---- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %C at offset %d, found %C" ch c.pos x
  | None -> fail "expected %C at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "invalid literal at offset %d" c.pos

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail "invalid \\u escape at offset %d" c.pos
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch -> v := (!v * 16) + digit ch
    | None -> fail "truncated \\u escape at offset %d" c.pos);
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail "unterminated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let u = hex4 c in
                (* Surrogate pair: a high surrogate must be followed by
                   an escaped low surrogate. *)
                if u >= 0xd800 && u <= 0xdbff then begin
                  expect c '\\';
                  expect c 'u';
                  let lo = hex4 c in
                  if lo < 0xdc00 || lo > 0xdfff then
                    fail "unpaired surrogate at offset %d" c.pos;
                  add_utf8 buf
                    (0x10000 + (((u - 0xd800) lsl 10) lor (lo - 0xdc00)))
                end
                else add_utf8 buf u
            | _ -> fail "invalid escape \\%C at offset %d" ch c.pos);
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
        advance c;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail "invalid number %S at offset %d" text start
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* magnitude beyond the int range: fall back to float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "invalid number %S at offset %d" text start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" c.pos
        in
        List (items [])
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else
        let member () =
          skip_ws c;
          let name = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (name, v)
        in
        let rec members acc =
          let m = member () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members (m :: acc)
          | Some '}' ->
              advance c;
              List.rev (m :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" c.pos
        in
        Obj (members [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected %C at offset %d" ch c.pos

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Fail m -> Error m

(* ---- printing ---- *)

(* Each run of bytes that needs no escape is copied with one
   [Buffer.add_substring]; only a quote, a backslash or a control byte
   stops it. *)
let rec escape_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let ch = s.[i] in
    if ch <> '"' && ch <> '\\' && Char.code ch >= 0x20 then
      escape_from buf s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      (match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch)));
      escape_from buf s (i + 1) (i + 1)
    end

let escape buf s = escape_from buf s 0 0

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

let member_prefixes names =
  Array.of_list
    (List.mapi
       (fun k name ->
         let b = Buffer.create 16 in
         if k > 0 then Buffer.add_char b ',';
         add_string b name;
         Buffer.add_char b ':';
         Buffer.contents b)
       names)

let add_float buf f =
  if Float.is_finite f then begin
    (* %.17g is exact for doubles; trim to the shortest of the two
       standard precisions that round-trips. An integral value prints
       with no fraction or exponent ("3", "-0"), which would read back
       as an [Int]: give it a ".0". *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
      Buffer.add_string buf ".0"
  end
  else add_string buf (Float.to_string f)

let to_string j =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | String s -> add_string buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          items;
        Buffer.add_char buf ']'
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (name, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_string buf name;
            Buffer.add_char buf ':';
            go v)
          members;
        Buffer.add_char buf '}'
    | Raw text -> Buffer.add_string buf text
  in
  go j;
  Buffer.contents buf

let member name = function
  | Obj members ->
      List.fold_left
        (fun acc (n, v) -> if n = name then Some v else acc)
        None members
  | _ -> None

let string_member name j =
  match member name j with Some (String s) -> Some s | _ -> None
