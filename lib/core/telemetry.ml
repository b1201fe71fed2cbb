(* Counters + span timings with a no-op default sink. See telemetry.mli
   for the threading contract. *)

type state = {
  counters : (string, int ref) Hashtbl.t;
  spans : (string, float ref * int ref) Hashtbl.t;
      (* total seconds, call count *)
  clock : unit -> float;
}

type t = Off | On of state

let off = Off

let create ?(clock = Unix.gettimeofday) () =
  On { counters = Hashtbl.create 32; spans = Hashtbl.create 16; clock }

let enabled = function Off -> false | On _ -> true

let add t name n =
  match t with
  | Off -> ()
  | On s -> (
      match Hashtbl.find_opt s.counters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.add s.counters name (ref n))

let incr t name = add t name 1

let span t name f =
  match t with
  | Off -> f ()
  | On s -> (
      let t0 = s.clock () in
      let charge () =
        let dt = s.clock () -. t0 in
        match Hashtbl.find_opt s.spans name with
        | Some (total, calls) ->
            total := !total +. dt;
            Stdlib.incr calls
        | None -> Hashtbl.add s.spans name (ref dt, ref 1)
      in
      match f () with
      | v ->
          charge ();
          v
      | exception e ->
          charge ();
          raise e)

(* ---- reading ---- *)

let counter t name =
  match t with
  | Off -> 0
  | On s -> (
      match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0)

let counters t =
  match t with
  | Off -> []
  | On s ->
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) s.counters []
      |> List.sort compare

type span_stat = { span_name : string; total_ms : float; calls : int }

let spans t =
  match t with
  | Off -> []
  | On s ->
      Hashtbl.fold
        (fun span_name (total, calls) acc ->
          { span_name; total_ms = !total *. 1000.; calls = !calls } :: acc)
        s.spans []
      |> List.sort compare

(* Guarded quotients: derived metrics must never be NaN or infinite,
   whatever the counter values. *)
let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let derived t =
  match t with
  | Off -> []
  | On s ->
      if Hashtbl.mem s.counters "ilfd.fixpoint.classes" then
        let c = counter t in
        [
          ( "ilfd_class_sharing",
            rate
              (c "ilfd.tuples" - c "ilfd.fixpoint.classes")
              (c "ilfd.tuples") );
        ]
      else []

(* ---- rendering ---- *)

(* %h/%e would be locale-proof too, but fixed-point decimal keeps the
   JSON trivially parseable; inputs are finite by construction and we
   clamp defensively anyway. *)
let json_float x = Printf.sprintf "%.6f" (if Float.is_finite x then x else 0.0)

let json_string s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

let to_json t =
  let buf = Buffer.create 512 in
  let obj fields =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, render) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (json_string k);
        Buffer.add_char buf ':';
        render ())
      fields;
    Buffer.add_char buf '}'
  in
  obj
    [
      ( "counters",
        fun () ->
          obj
            (List.map
               (fun (name, v) ->
                 (name, fun () -> Buffer.add_string buf (string_of_int v)))
               (counters t)) );
      ( "spans",
        fun () ->
          obj
            (List.map
               (fun s ->
                 ( s.span_name,
                   fun () ->
                     obj
                       [
                         ( "ms",
                           fun () ->
                             Buffer.add_string buf (json_float s.total_ms) );
                         ( "calls",
                           fun () ->
                             Buffer.add_string buf (string_of_int s.calls) );
                       ] ))
               (spans t)) );
      ( "derived",
        fun () ->
          obj
            (List.map
               (fun (name, v) ->
                 (name, fun () -> Buffer.add_string buf (json_float v)))
               (derived t)) );
    ];
  Buffer.contents buf

let pp ppf t =
  let cs = counters t and ss = spans t and ds = derived t in
  Format.fprintf ppf "@[<v>";
  if ss <> [] then begin
    Format.fprintf ppf "spans:@,";
    List.iter
      (fun s ->
        Format.fprintf ppf "  %-36s %10.3f ms  (%d call%s)@," s.span_name
          s.total_ms s.calls
          (if s.calls = 1 then "" else "s"))
      ss
  end;
  if cs <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %10d@," name v)
      cs
  end;
  if ds <> [] then begin
    Format.fprintf ppf "derived:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %10.4f@," name v)
      ds
  end;
  if cs = [] && ss = [] && ds = [] then
    Format.fprintf ppf "telemetry: nothing collected@,";
  Format.fprintf ppf "@]"

let reset = function
  | Off -> ()
  | On s ->
      Hashtbl.reset s.counters;
      Hashtbl.reset s.spans
