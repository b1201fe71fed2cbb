let pad width s =
  let len = String.length s in
  if len >= width then s else s ^ String.make (width - len) ' '

let render_rows ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let render_row cells =
    let padded =
      List.mapi (fun i cell -> pad widths.(i) cell) cells
    in
    String.concat "  " padded
  in
  let rule =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (render_row r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* The one table renderer, over the relation's code columns: each
   distinct code's text is made once ([Intern.memo]), the widths are
   taken over the texts, and each line is appended to [b], after which
   [spill] may empty it. *)
let write ?title b ~spill r =
  let header = Array.of_list (Schema.names (Relation.schema r)) in
  let c = Relation.columnar r in
  let cols = Array.init (Array.length header) (Columnar.nth c) in
  let text = Intern.memo Value.to_string in
  let widths =
    Array.mapi
      (fun k col ->
        Array.fold_left
          (fun w code -> max w (String.length (text code)))
          (String.length header.(k))
          col)
      cols
  in
  let spaces = String.make (Array.fold_left max 0 widths) ' ' in
  let line cell =
    Array.iteri
      (fun k w ->
        if k > 0 then Buffer.add_string b "  ";
        let s = cell k in
        Buffer.add_string b s;
        Buffer.add_substring b spaces 0 (w - String.length s))
      widths;
    Buffer.add_char b '\n';
    spill ()
  in
  Option.iter
    (fun t ->
      Buffer.add_string b t;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (String.length t) '=');
      Buffer.add_char b '\n')
    title;
  line (fun k -> header.(k));
  line (fun k -> String.make widths.(k) '-');
  for i = 0 to Columnar.length c - 1 do
    line (fun k -> text cols.(k).(i))
  done

let render ?title r =
  let b = Buffer.create 4096 in
  write ?title b ~spill:ignore r;
  Buffer.contents b

let output ?title oc r =
  let b = Buffer.create 65536 in
  let spill () =
    if Buffer.length b >= 65536 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  write ?title b ~spill r;
  Buffer.output_buffer oc b

let print ?title r = output ?title stdout r
