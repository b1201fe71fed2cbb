exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

(* The record scanner: a hand-rolled state machine handling quoted
   fields, escaped quotes ("") and both \n and \r\n record separators.
   It calls [cell] on each cell and [record] after each record's last
   cell, so a reader can consume records as they are found. A quote opens
   a quoted field only at the start of a field; after the closing quote,
   and anywhere in an unquoted field, it is content, as is a CR that
   does not start a CRLF. *)
let scan s ~cell ~record =
  let n = String.length s in
  let buf = Buffer.create 32 in
  let line = ref 1 in
  let ends_field i =
    i >= n
    || s.[i] = ','
    || s.[i] = '\n'
    || (s.[i] = '\r' && i + 1 < n && s.[i + 1] = '\n')
  in
  (* [field i ~first]: a field starts at [i], the record's first when
     [first]. At the end of the input, a record with cells already (a
     trailing comma) gets a last empty cell; a record without is none. *)
  let rec field i ~first =
    if i >= n then begin
      if not first then finish "" i
    end
    else if s.[i] = '"' then quoted (i + 1)
    else plain i i
  (* An unquoted field from [start]: cut out of [s] at its end. *)
  and plain start i =
    if ends_field i then finish (String.sub s start (i - start)) i
    else plain start (i + 1)
  and quoted i =
    if i >= n then fail !line "unterminated quoted field"
    else
      match s.[i] with
      | '"' ->
          if i + 1 < n && s.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            quoted (i + 2)
          end
          else after_quote (i + 1)
      | '\n' ->
          incr line;
          Buffer.add_char buf '\n';
          quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  (* Past a closing quote, up to the field's end. Even an empty quoted
     field makes a record real, so a final [""] line at EOF is kept. *)
  and after_quote i =
    if ends_field i then begin
      let c = Buffer.contents buf in
      Buffer.clear buf;
      finish c i
    end
    else begin
      Buffer.add_char buf s.[i];
      after_quote (i + 1)
    end
  (* [i] ends a field: at the input's end, a comma or a separator. *)
  and finish c i =
    cell c;
    if i >= n then record ()
    else if s.[i] = ',' then field (i + 1) ~first:false
    else begin
      record ();
      incr line;
      field (if s.[i] = '\r' then i + 2 else i + 1) ~first:true
    end
  in
  (* A UTF-8 byte-order mark (Excel writes one) is not part of the first
     cell. *)
  let bom = n >= 3 && s.[0] = '\xef' && s.[1] = '\xbb' && s.[2] = '\xbf' in
  field (if bom then 3 else 0) ~first:true

let parse_string s =
  let records = ref [] and cells = ref [] in
  scan s
    ~cell:(fun c -> cells := c :: !cells)
    ~record:(fun () ->
      records := List.rev !cells :: !records;
      cells := []);
  List.rev !records

(* What the loader has read so far: header cells (reversed), then rows
   going into a builder through one reused code buffer, or the first
   problem found — raised once the scan is over, so that a quote left
   open at the end of the input is reported first, as a full parse
   would. *)
type reading =
  | Header of string list
  | Rows of Relation.builder * int array
  | Failed of int * string

(* An upper bound on the rows of [s]: every record but the last ends
   at a newline, and the first record is the header. A quoted newline
   makes it an over-estimate. *)
let row_bound s =
  let n = String.length s in
  let newlines = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get s i = '\n' then incr newlines
  done;
  if n > 0 && s.[n - 1] = '\n' then !newlines - 1 else !newlines

(* One pass: each cell is interned once, straight into the builder's
   code columns, sized by [row_bound] so that they never regrow; no
   record list and no tuple is built before set semantics are
   settled. *)
let relation_of_string ?(keys = []) s =
  let rows = row_bound s in
  let state = ref (Header []) and width = ref 0 and record_no = ref 1 in
  let cell c =
    (match !state with
    | Header names -> state := Header (String.trim c :: names)
    | Rows (_, codes) when !width < Array.length codes ->
        codes.(!width) <- Intern.code (Value.of_csv_string c)
    | Rows _ | Failed _ -> ());
    incr width
  in
  let record () =
    (match !state with
    | Header names -> (
        match Schema.of_names (List.rev names) with
        | schema ->
            let codes = Array.make (Schema.arity schema) 0 in
            state := Rows (Relation.builder ~rows schema ~keys, codes)
        | exception Schema.Duplicate_attribute a ->
            let message =
              Printf.sprintf "duplicate column %S in the header" a
            in
            state := Failed (1, message))
    | Rows (b, codes) ->
        let arity = Array.length codes in
        if !width = arity then Relation.add_codes b codes
        else
          state :=
            Failed
              ( !record_no,
                Printf.sprintf "expected %d cells, got %d" arity !width )
    | Failed _ -> ());
    width := 0;
    incr record_no
  in
  scan s ~cell ~record;
  match !state with
  | Header _ -> fail 1 "empty CSV: missing header row"
  | Rows (b, _) -> Relation.build b
  | Failed (line, message) -> fail line message

let read path = In_channel.with_open_bin path In_channel.input_all
let load ?(keys = []) path = relation_of_string ~keys (read path)

(* The scan stops at the end of the first record. *)
let header path =
  let names = ref [] in
  (try
     scan (read path)
       ~cell:(fun c -> names := String.trim c :: !names)
       ~record:(fun () -> raise Exit)
   with Exit -> ());
  List.rev !names

let escape_cell s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quote then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let cell_of_value = function
  | Value.Null -> ""
  | v -> escape_cell (Value.to_string v)

(* The header row, then each row's cells, each code's cell text made
   once ([Intern.memo]); each line is appended to [b], after which
   [spill] may empty it. *)
let write b ~spill r =
  let names = Schema.names (Relation.schema r) in
  let c = Relation.columnar r in
  let cols = Array.init (List.length names) (Columnar.nth c) in
  let cell = Intern.memo cell_of_value in
  Buffer.add_string b (String.concat "," (List.map escape_cell names));
  Buffer.add_char b '\n';
  for i = 0 to Columnar.length c - 1 do
    Array.iteri
      (fun k col ->
        if k > 0 then Buffer.add_char b ',';
        Buffer.add_string b (cell col.(i)))
      cols;
    Buffer.add_char b '\n';
    spill ()
  done

let to_string r =
  let b = Buffer.create 256 in
  write b ~spill:ignore r;
  Buffer.contents b

let output oc r =
  let b = Buffer.create 65536 in
  let spill () =
    if Buffer.length b >= 65536 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  write b ~spill r;
  Buffer.output_buffer oc b

let save r path =
  let oc = open_out_bin path in
  match output oc r with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e
