(* The batch form: one [entity_ident identify] run from CSV files to an
   output file, timed from spawn to exit. The trace replays the same
   inputs through the library calls the CLI makes, in its order. *)

module Json = Eid_store.Json

type form = {
  inputs : Gen.batch;
  stream : bool;  (** [--stream-out FILE] instead of [--show mt > FILE] *)
  out : string;
}

let cli_args f =
  [ "identify"; "--left"; f.inputs.r_csv; "--right"; f.inputs.s_csv;
    "--r-key"; Gen.r_key; "--s-key"; Gen.s_key;
    "--key"; String.concat "," f.inputs.key; "--rules"; f.inputs.rules ]
  @ if f.stream then [ "--stream-out"; f.out ] else [ "--show"; "mt" ]

(* ---- reading the output back ---- *)

let words l = List.filter (fun w -> w <> "") (String.split_on_char ' ' l)

(* Rows of the rendered matching table: after the dashed rule under the
   header, up to the blank line that ends the table. Values carry no
   spaces, so a row is its four words. *)
let pairs_of_table lines =
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.length l > 0 && l.[0] = '-' then rest else skip rest
  in
  let rec rows acc = function
    | [] | "" :: _ -> List.rev acc
    | l :: rest -> rows (String.concat " " (words l) :: acc) rest
  in
  rows [] (skip lines)

let pair_of_ndjson line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      let side name attrs =
        match Json.member name j with
        | Some o -> List.map (fun a -> Json.string_member a o) attrs
        | None -> [ None ]
      in
      match side "r" [ "name"; "cuisine" ] @ side "s" [ "name"; "speciality" ] with
      | [ Some a; Some b; Some c; Some d ] -> Some (String.concat " " [ a; b; c; d ])
      | _ -> None)

let verified_marker = "The extended key is verified."

(* The output file holds exactly the expected pairs (and, for the
   rendered table, the verification message). *)
let check_output f ~expected =
  let lines = Measure.read_lines f.out in
  let got =
    if f.stream then List.map pair_of_ndjson lines
    else List.map Option.some (pairs_of_table lines)
  in
  let got = List.sort compare got in
  let n_got = List.length got in
  Measure.check
    (got = expected
    && (f.stream || List.exists (String.ends_with ~suffix:verified_marker) lines))
    (fun () ->
      Printf.sprintf "identify output %s: %d pair(s), %d expected" f.out n_got
        (List.length expected))

let expected_pairs f =
  List.sort compare (List.map Option.some (Measure.read_lines f.inputs.expected))

(* ---- end to end ---- *)

let timeout = 170.

(* One run: [(seconds from spawn to exit, peak RSS in KiB)], after
   checking the exit code and the output against [expected_pairs]. *)
let run ~bin f ~expected =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; O_CLOEXEC ] 0 in
  let out =
    if f.stream then Unix.openfile "/dev/null" [ Unix.O_WRONLY; O_CLOEXEC ] 0
    else
      Unix.openfile f.out [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let t0 = Measure.now () in
  let pid =
    Measure.spawn ~prog:bin ~args:(cli_args f) ~stdin:null_in ~stdout:out
      ~stderr:err_w
  in
  List.iter Unix.close [ null_in; out; err_w ];
  (* stderr reaches EOF when the child exits *)
  let exited = Measure.drain err_r ~timeout in
  if not exited then Measure.kill_and_reap pid;
  let code, rss = if exited then Measure.reap pid else (-1, 0) in
  let dt = Measure.now () -. t0 in
  Unix.close err_r;
  Measure.check (code = 0) (fun () ->
      if exited then Printf.sprintf "identify exited with code %d" code
      else "identify timed out");
  check_output f ~expected;
  (dt, rss)

(* ---- trace ---- *)

(* The CLI's [read_rules]: non-blank, non-comment lines, each parsed. *)
let read_rules path =
  Measure.read_lines path
  |> List.filter (fun l ->
         let t = String.trim l in
         t <> "" && t.[0] <> '#')
  |> List.map Ilfd.parse

let json_row names t =
  Json.Obj
    (List.mapi
       (fun k name ->
         (name, Eid_store.Service.json_of_value (Relational.Tuple.nth t k)))
       names)

(* [(name, value, unit)] per layer. [run_s] is the end-to-end median the
   layers are held against. *)
let trace f ~run_s =
  let tele = Telemetry.create ~clock:Measure.now () in
  let ms s = s *. 1000. in
  let (r, s), load_s, load_mw =
    Measure.timed_alloc (fun () ->
        let load path key =
          Relational.Csv_io.load ~keys:[ String.split_on_char ',' key ] path
        in
        let r = load f.inputs.r_csv Gen.r_key in
        (r, load f.inputs.s_csv Gen.s_key))
  in
  let ilfds, parse_s = Measure.timed (fun () -> read_rules f.inputs.rules) in
  let key = Entity_id.Extended_key.make f.inputs.key in
  let run_s_in, run_mw, output_s =
    if f.stream then begin
      (* The fold writes each pair as the CLI does; its writes are the
         output layer, nested inside the run. *)
      let names rel =
        Relational.Schema.names (Entity_id.Identify.extension_schema rel key)
      in
      let r_names = names r and s_names = names s in
      let write_s = ref 0. in
      let oc = open_out_bin f.out in
      let _, dt, mw =
        Measure.timed_alloc (fun () ->
            Entity_id.Identify.run_stream ~telemetry:tele ~r ~s ~key ~init:0
              ~f:(fun n tr ts ->
                let t0 = Measure.now () in
                output_string oc
                  (Json.to_string
                     (Json.Obj
                        [ ("r", json_row r_names tr); ("s", json_row s_names ts) ]));
                output_char oc '\n';
                write_s := !write_s +. (Measure.now () -. t0);
                n + 1)
              ilfds)
      in
      close_out oc;
      (dt, mw, !write_s)
    end
    else begin
      let o, dt, mw =
        Measure.timed_alloc (fun () ->
            Entity_id.Identify.run ~telemetry:tele ~r ~s ~key ilfds)
      in
      let (), out_s =
        Measure.timed (fun () ->
            Out_channel.with_open_bin f.out (fun oc ->
                output_string oc
                  (Relational.Pretty.render ~title:"matching table"
                     (Entity_id.Matching_table.to_relation o.matching_table));
                output_char oc '\n';
                let report = Entity_id.Verify.check o.matching_table in
                let ppf = Format.formatter_of_out_channel oc in
                Format.fprintf ppf "%a@." Entity_id.Verify.pp_report report))
      in
      (dt, mw, out_s)
    end
  in
  check_output f ~expected:(expected_pairs f);
  (* A probe, not a CLI call: timed after the run so the run sees the
     heap a fresh CLI process would. *)
  let _, compile_s = Measure.timed (fun () -> Ilfd.Apply.compile ilfds) in
  let span name =
    List.fold_left
      (fun acc (sp : Telemetry.span_stat) ->
        if sp.span_name = name then acc +. sp.total_ms else acc)
      0. (Telemetry.spans tele)
  in
  let counter name = float_of_int (Telemetry.counter tele name) in
  let derived name =
    Option.value ~default:0. (List.assoc_opt name (Telemetry.derived tele))
  in
  (* Top-level calls of the CLI; in streaming mode the writes happen
     inside the run. *)
  let top = load_s +. parse_s +. run_s_in +. if f.stream then 0. else output_s in
  [
    ("batch.relational.csv_load_ms", ms load_s, "ms");
    ("batch.relational.csv_load_alloc_mw", load_mw, "Mw");
    ("batch.ilfd.parse_ms", ms parse_s, "ms");
    ("batch.ilfd.compile_ms", ms compile_s, "ms");
    ("batch.ilfd.extend_ms", span "ilfd.extend", "ms");
    ("batch.ilfd.fixpoint.classes", counter "ilfd.fixpoint.classes", "count");
    ("batch.ilfd_class_sharing", derived "ilfd_class_sharing", "ratio");
    ("batch.identify.extend_r_ms", span "identify.extend_r", "ms");
    ("batch.identify.extend_s_ms", span "identify.extend_s", "ms");
    ("batch.identify.join_ms", span "identify.join", "ms");
    ("batch.identify.run_ms", ms run_s_in, "ms");
    ("batch.identify.alloc_mw", run_mw, "Mw");
    ("batch.output.render_ms", ms output_s, "ms");
    ("batch.unattributed_ms", ms (run_s -. top), "ms");
  ]
