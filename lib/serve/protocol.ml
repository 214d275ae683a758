(* Wire protocol: decimal length prefix + newline + payload; payloads are
   header lines, a blank line, then an opaque body.  Everything here is
   pure string transformation apart from the two channel helpers, so the
   tests exercise framing and parsing without a socket. *)

let default_max_frame = 8 * 1024 * 1024
let length_digits = 12

type frame_error = Eof | Malformed of string | Oversized of int

let frame_error_message = function
  | Eof -> "end of stream"
  | Malformed msg -> "malformed frame: " ^ msg
  | Oversized n -> Printf.sprintf "oversized frame: %d bytes" n

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

let read_frame ?(max_bytes = default_max_frame) ic =
  (* length line: bare digits, newline-terminated, bounded *)
  let buf = Buffer.create 16 in
  let rec length_line first =
    match input_char ic with
    | '\n' ->
        if Buffer.length buf = 0 then Error (Malformed "empty length line")
        else Ok (Buffer.contents buf)
    | '0' .. '9' as c ->
        if Buffer.length buf >= length_digits then
          Error (Malformed "length prefix too long")
        else begin
          Buffer.add_char buf c;
          length_line false
        end
    | c -> Error (Malformed (Printf.sprintf "unexpected byte %C in length prefix" c))
    | exception End_of_file ->
        if first then Error Eof else Error (Malformed "stream ended inside length prefix")
  in
  match length_line true with
  | Error _ as e -> e
  | Ok digits -> (
      match int_of_string_opt digits with
      | None -> Error (Malformed "unparsable length prefix")
      | Some len when len > max_bytes -> Error (Oversized len)
      | Some len -> (
          try Ok (really_input_string ic len)
          with End_of_file -> Error (Malformed "stream ended inside payload")))

(* ------------------------------------------------------------------ *)
(* Payload structure: header lines, blank line, body                   *)
(* ------------------------------------------------------------------ *)

let split_payload payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some _ -> (
      (* headers end at the first empty line *)
      let rec find_break from =
        match String.index_from_opt payload from '\n' with
        | None -> None
        | Some i ->
            if i + 1 < String.length payload && payload.[i + 1] = '\n' then Some (i + 1)
            else if i = from then Some i (* payload starts with a blank line *)
            else find_break (i + 1)
      in
      match find_break 0 with
      | None -> (payload, "")
      | Some i ->
          ( String.sub payload 0 (max 0 (i - 1)),
            String.sub payload (i + 1) (String.length payload - i - 1) ))

let header_lines headers =
  String.split_on_char '\n' headers
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))

let render lines body =
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      if v <> "" then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf v
      end;
      Buffer.add_char buf '\n')
    lines;
  Buffer.add_char buf '\n';
  Buffer.add_string buf body;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

module Method = Pmtbr_core.Method

type job = {
  meth : Method.t;
  options : Method.options;
  export : bool;
  netlist : string;
}

type request = Reduce of job | Ping | Stats | Shutdown

let encode_request = function
  | Ping -> render [ ("job", "ping") ] ""
  | Stats -> render [ ("job", "stats") ] ""
  | Shutdown -> render [ ("job", "shutdown") ] ""
  | Reduce { meth; options = o; export; netlist } ->
      let lo, hi = o.Method.band in
      let opt key show = function Some v -> [ (key, show v) ] | None -> [] in
      let float = Printf.sprintf "%.17g" in
      render
        ([ ("job", "reduce"); ("method", meth.Method.name);
           ("band", Printf.sprintf "%.17g:%.17g" lo hi) ]
        @ opt "tol" float o.Method.tol
        @ opt "order" string_of_int o.Method.order
        @ [ ("samples", string_of_int o.Method.samples) ]
        @ opt "partition"
            (function Method.Parts k -> string_of_int k | Method.Auto -> "auto")
            o.Method.partition
        @ opt "max-part-states" string_of_int o.Method.max_part_states
        @ opt "interface-tol" float o.Method.interface_tol
        @ if export then [ ("export", "1") ] else [])
        netlist

let fields =
  [ "job"; "method"; "band"; "tol"; "order"; "samples"; "partition"; "max-part-states";
    "interface-tol"; "export" ]

(* Each header is parsed to its type here; every range and combination
   check is [Method.validate]'s, the one the CLI runs too. *)
let parse_reduce kvs body =
  let ( let* ) = Result.bind in
  let field key parse =
    match List.assoc_opt key kvs with
    | None -> Ok None
    | Some s -> (
        match parse s with
        | Some v -> Ok (Some v)
        | None -> Error (Printf.sprintf "unparsable %s %S" key s))
  in
  let* meth =
    match List.assoc_opt "method" kvs with None -> Ok Method.pmtbr | Some name -> Method.find name
  in
  let* () = Method.check_served meth in
  let* () =
    match List.find_opt (fun (k, _) -> not (List.mem k fields)) kvs with
    | Some (k, _) ->
        Error
          (Printf.sprintf "unknown field %S (a reduce job takes %s)" k (String.concat ", " fields))
    | None -> Ok ()
  in
  let* band =
    match List.assoc_opt "band" kvs with
    | None -> Error "reduce job is missing the band field"
    | Some s -> Method.parse_band s
  in
  let* tol = field "tol" float_of_string_opt in
  let* order = field "order" int_of_string_opt in
  let* samples = field "samples" int_of_string_opt in
  let* partition =
    field "partition" (function
      | "auto" -> Some Method.Auto
      | s -> Option.map (fun k -> Method.Parts k) (int_of_string_opt s))
  in
  let* max_part_states = field "max-part-states" int_of_string_opt in
  let* interface_tol = field "interface-tol" float_of_string_opt in
  let* export =
    match List.assoc_opt "export" kvs with
    | None | Some ("0" | "false") -> Ok false
    | Some ("1" | "true") -> Ok true
    | Some s -> Error (Printf.sprintf "export must be 0 or 1 (got %S)" s)
  in
  let d = Method.defaults ~band in
  let* options =
    Method.validate meth
      { d with tol; order; partition; max_part_states; interface_tol;
               samples = Option.value samples ~default:d.Method.samples }
  in
  if String.trim body = "" then Error "reduce job is missing the netlist body"
  else Ok (Reduce { meth; options; export; netlist = body })

let parse_request payload =
  let headers, body = split_payload payload in
  let kvs = header_lines headers in
  match List.assoc_opt "job" kvs with
  | None -> Error "first header must be a job line"
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some "reduce" -> parse_reduce kvs body
  | Some other -> Error (Printf.sprintf "unknown job kind %S" other)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type response = {
  status : (unit, string) result;
  fields : (string * string) list;
  body : string;
}

let ok ?(fields = []) ?(body = "") () = { status = Ok (); fields; body }
let error msg = { status = Error msg; fields = []; body = "" }

(* error text rides in its own header; newlines would break the line
   structure, so they are flattened *)
let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let encode_response r =
  match r.status with
  | Ok () -> render (("status", "ok") :: r.fields) r.body
  | Error msg -> render [ ("status", "error"); ("error", one_line msg) ] r.body

let parse_response payload =
  let headers, body = split_payload payload in
  match header_lines headers with
  | ("status", "ok") :: fields -> Ok { status = Ok (); fields; body }
  | ("status", "error") :: fields ->
      let msg = Option.value (List.assoc_opt "error" fields) ~default:"unknown error" in
      Ok { status = Error msg; fields; body }
  | _ -> Error "response must start with a status line"

let field r k = List.assoc_opt k r.fields
