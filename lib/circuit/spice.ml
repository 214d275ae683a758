(* Streaming reader/writer for a SPICE-like netlist dialect, so that
   externally extracted parasitic networks can be fed to the reduction
   algorithms.  The reader runs line-at-a-time on top of Spice_lex (so
   million-element extractions never materialise a line list) and parses
   into the canonical Spice_ir form, which is the single source of truth
   for MNA stamping, re-rendering and content addressing.

   Supported cards (case-insensitive; '*', ';' and '$' comments; '+'
   continuation lines; blank lines ignored):

     Rname n1 n2 value        resistor
     Cname n1 n2 value        capacitor
     Lname n1 n2 value        inductor
     Kname Lname1 Lname2 k    mutual coupling (|k| < 1)
     Xname n1 .. nN subname   subcircuit instance (flattened on the fly)
     .subckt name f1 .. fN    subcircuit definition, closed by .ends
     .model name type value   named value (type r/res, c/cap, l/ind)
     .port node               current-injection port (voltage observed)
     .end                     terminator: the rest of the input is ignored

   Node "0" (or "gnd") is ground; any other token is a named node.  Values
   accept the usual SI suffixes (f p n u m k meg g t) and may be negative
   (synthesised ROM netlists need negative branch elements); zero or
   non-finite values are rejected with the offending line number.
   Element cards whose two nodes coincide are dropped (they cannot stamp). *)

exception Parse_error of int * string
(* line number (1-based) and message *)

let () =
  Printexc.register_printer (function
    | Parse_error (line, msg) -> Some (Printf.sprintf "netlist parse error at line %d: %s" line msg)
    | _ -> None)

let parse_value ~line s =
  let s = String.lowercase_ascii s in
  let len = String.length s in
  let split i = (String.sub s 0 i, String.sub s i (len - i)) in
  let rec digits_end i =
    if i < len && (match s.[i] with '0' .. '9' | '.' | '-' | '+' | 'e' -> true | _ -> false)
    then
      (* treat 'e' as part of the number only when followed by a digit/sign *)
      if s.[i] = 'e'
         && not (i + 1 < len && (match s.[i + 1] with '0' .. '9' | '-' | '+' -> true | _ -> false))
      then i
      else digits_end (i + 1)
    else i
  in
  let stop = digits_end 0 in
  let num, suffix = split stop in
  let base =
    try float_of_string num
    with Failure _ -> raise (Parse_error (line, "bad numeric value: " ^ s))
  in
  (* SPICE value semantics: the scale factor is the longest recognized
     prefix of the suffix ("meg" before "m"), and any trailing alphabetic
     unit text is ignored — "10kohm" is 10e3, "1pF" is 1e-12, "100MEGHz"
     is 100e6, and a bare unit like "5ohm" scales by 1.  Non-alphabetic
     trailing garbage is still a parse error. *)
  let scale =
    if suffix = "" then 1.0
    else if not (String.for_all (fun c -> c >= 'a' && c <= 'z') suffix) then
      raise (Parse_error (line, "unknown unit suffix: " ^ suffix))
    else if String.length suffix >= 3 && String.sub suffix 0 3 = "meg" then 1e6
    else
      match suffix.[0] with
      | 'f' -> 1e-15
      | 'p' -> 1e-12
      | 'n' -> 1e-9
      | 'u' -> 1e-6
      | 'm' -> 1e-3
      | 'k' -> 1e3
      | 'g' -> 1e9
      | 't' -> 1e12
      | _ -> 1.0
  in
  base *. scale

type t = {
  ir : Spice_ir.t;
  names : string array; (* node id -> original name; names.(0) = "0" *)
  nl : Netlist.t Lazy.t;
}

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

type subckt = { formals : string list; body : Spice_lex.line list (* reversed *) }

type state = {
  node_ids : (string, int) Hashtbl.t;
  mutable node_names : string list; (* reverse order of id assignment *)
  mutable cards : Spice_ir.card list; (* reversed *)
  mutable ports : int list; (* reversed *)
  inductors : (string, int) Hashtbl.t; (* scoped name -> inductor index *)
  mutable ind_count : int;
  models : (string, char * float) Hashtbl.t; (* name -> (kind, value) *)
  subckts : (string, subckt) Hashtbl.t;
  (* definition being collected: name, start line, formals, body (rev) *)
  mutable defining : (string * int * string list * Spice_lex.line list) option;
  mutable finished : bool; (* .end seen *)
}

let fresh_state () =
  {
    node_ids = Hashtbl.create 64;
    node_names = [];
    cards = [];
    ports = [];
    inductors = Hashtbl.create 16;
    ind_count = 0;
    models = Hashtbl.create 8;
    subckts = Hashtbl.create 8;
    defining = None;
    finished = false;
  }

(* Instance scope: node-name prefix plus formal -> resolved-node bindings. *)
type scope = { prefix : string; bindings : (string * int) list }

let top_scope = { prefix = ""; bindings = [] }

let lookup_node st name =
  match Hashtbl.find_opt st.node_ids name with
  | Some n -> n
  | None ->
      let n = Hashtbl.length st.node_ids + 1 in
      Hashtbl.add st.node_ids name n;
      st.node_names <- name :: st.node_names;
      n

let resolve_node st scope name =
  let key = String.lowercase_ascii name in
  if key = "0" || key = "gnd" then 0
  else
    match List.assoc_opt key scope.bindings with
    | Some n -> n
    | None -> lookup_node st (scope.prefix ^ key)

let check_value ~line v =
  if not (Float.is_finite v) then
    raise (Parse_error (line, Printf.sprintf "element value must be finite (got %g)" v))
  else if v = 0.0 then raise (Parse_error (line, "element value must be nonzero"))
  else v

(* The value field of an element card: a .model reference or a literal. *)
let element_value st ~line ~kind tok =
  match Hashtbl.find_opt st.models (String.lowercase_ascii tok) with
  | Some (mk, v) ->
      if mk = kind then v
      else
        raise
          (Parse_error
             (line, Printf.sprintf "model %s has type %c, card needs %c" tok mk kind))
  | None -> check_value ~line (parse_value ~line tok)

let model_kind ~line s =
  match String.lowercase_ascii s with
  | "r" | "res" -> 'r'
  | "c" | "cap" -> 'c'
  | "l" | "ind" -> 'l'
  | other -> raise (Parse_error (line, "unknown model type: " ^ other))

let max_instance_depth = 64

(* One element/instance card, in a given scope.  [depth] bounds recursive
   subcircuit instantiation. *)
let rec process_card st scope depth { Spice_lex.num = line; tokens } =
  match tokens with
  | [] -> ()
  | card :: rest -> (
      let kind = Char.lowercase_ascii card.[0] in
      match (kind, rest) with
      | '.', _ -> (
          match (String.lowercase_ascii card, rest) with
          | ".end", _ ->
              if scope == top_scope then st.finished <- true
              else raise (Parse_error (line, ".end inside a subcircuit body"))
          | ".port", [ node ] ->
              if scope != top_scope then
                raise (Parse_error (line, ".port is not allowed inside a subcircuit"))
              else begin
                let n = resolve_node st scope node in
                if n = 0 then raise (Parse_error (line, ".port cannot sit on ground"));
                st.ports <- n :: st.ports
              end
          | ".port", _ -> raise (Parse_error (line, ".port expects one node"))
          | ".model", [ name; mtype; value ] ->
              if scope != top_scope then
                raise (Parse_error (line, ".model is not allowed inside a subcircuit"))
              else
                let k = model_kind ~line mtype in
                let v = check_value ~line (parse_value ~line value) in
                Hashtbl.replace st.models (String.lowercase_ascii name) (k, v)
          | ".model", _ -> raise (Parse_error (line, ".model expects NAME TYPE VALUE"))
          | (".subckt" | ".ends"), _ ->
              (* handled by the definition collector; reaching here means a
                 definition directive inside an instance body *)
              raise (Parse_error (line, card ^ " is not allowed inside a subcircuit body"))
          | other, _ -> raise (Parse_error (line, "unknown directive " ^ other)))
      | 'r', [ n1; n2; v ] ->
          let value = element_value st ~line ~kind:'r' v in
          let n1 = resolve_node st scope n1 in
          let n2 = resolve_node st scope n2 in
          if n1 <> n2 then st.cards <- Spice_ir.Res { n1; n2; ohms = value } :: st.cards
      | 'c', [ n1; n2; v ] ->
          let value = element_value st ~line ~kind:'c' v in
          let n1 = resolve_node st scope n1 in
          let n2 = resolve_node st scope n2 in
          if n1 <> n2 then st.cards <- Spice_ir.Cap { n1; n2; farads = value } :: st.cards
      | 'l', [ n1; n2; v ] ->
          let value = element_value st ~line ~kind:'l' v in
          let n1 = resolve_node st scope n1 in
          let n2 = resolve_node st scope n2 in
          if n1 <> n2 then begin
            let id = st.ind_count in
            st.ind_count <- id + 1;
            Hashtbl.replace st.inductors (scope.prefix ^ String.lowercase_ascii card) id;
            st.cards <- Spice_ir.Ind { n1; n2; henries = value } :: st.cards
          end
      | 'k', [ l1; l2; v ] ->
          let find name =
            match Hashtbl.find_opt st.inductors (scope.prefix ^ String.lowercase_ascii name) with
            | Some id -> id
            | None -> raise (Parse_error (line, "unknown inductor " ^ name))
          in
          let l1 = find l1 and l2 = find l2 in
          if l1 = l2 then
            raise (Parse_error (line, "mutual coupling needs two distinct inductors"));
          let k = parse_value ~line v in
          if not (Float.is_finite k && Float.abs k < 1.0) then
            raise
              (Parse_error (line, Printf.sprintf "coupling must satisfy |k| < 1 (got %g)" k));
          st.cards <- Spice_ir.Mut { l1; l2; k } :: st.cards
      | 'x', _ -> (
          if depth >= max_instance_depth then
            raise (Parse_error (line, "subcircuit instances nested too deeply"));
          match List.rev rest with
          | [] -> raise (Parse_error (line, "instance card needs nodes and a subckt name"))
          | subname :: rev_actuals -> (
              let key = String.lowercase_ascii subname in
              match Hashtbl.find_opt st.subckts key with
              | None -> raise (Parse_error (line, "unknown subcircuit " ^ subname))
              | Some def ->
                  let actuals = List.rev rev_actuals in
                  if List.length actuals <> List.length def.formals then
                    raise
                      (Parse_error
                         ( line,
                           Printf.sprintf "instance of %s expects %d nodes (got %d)" subname
                             (List.length def.formals) (List.length actuals) ));
                  (* bind formals to nodes resolved in the CALLER's scope *)
                  let bindings =
                    List.map2
                      (fun formal actual -> (formal, resolve_node st scope actual))
                      def.formals actuals
                  in
                  let inner =
                    {
                      prefix = scope.prefix ^ String.lowercase_ascii card ^ ".";
                      bindings;
                    }
                  in
                  List.iter
                    (fun body_line -> process_card st inner (depth + 1) body_line)
                    (List.rev def.body)))
      | ('r' | 'c' | 'l' | 'k'), _ ->
          raise
            (Parse_error (line, "wrong number of fields: " ^ String.concat " " tokens))
      | _, _ ->
          raise (Parse_error (line, "unknown card: " ^ String.concat " " tokens)))

(* Top-level dispatch: subckt definition collection wraps process_card. *)
let process_line st (ln : Spice_lex.line) =
  if not st.finished then
    match (st.defining, ln.tokens) with
    | Some (name, start, formals, body), first :: _
      when String.lowercase_ascii first = ".ends" ->
        ignore start;
        Hashtbl.replace st.subckts name { formals; body };
        st.defining <- None
    | Some (_, _, _, _), first :: _ when String.lowercase_ascii first = ".subckt" ->
        raise (Parse_error (ln.num, "nested .subckt definitions are not supported"))
    | Some (name, start, formals, body), _ ->
        st.defining <- Some (name, start, formals, ln :: body)
    | None, first :: rest when String.lowercase_ascii first = ".subckt" -> (
        match rest with
        | name :: formals when formals <> [] ->
            let formals = List.map String.lowercase_ascii formals in
            st.defining <- Some (String.lowercase_ascii name, ln.num, formals, [])
        | _ -> raise (Parse_error (ln.num, ".subckt expects a name and at least one node")))
    | None, first :: _ when String.lowercase_ascii first = ".ends" ->
        raise (Parse_error (ln.num, ".ends without a matching .subckt"))
    | None, _ -> process_card st top_scope 0 ln

let finish st =
  (match st.defining with
  | Some (name, start, _, _) ->
      raise (Parse_error (start, ".subckt " ^ name ^ " is never closed by .ends"))
  | None -> ());
  let nodes = Hashtbl.length st.node_ids in
  let ir =
    {
      Spice_ir.cards = Array.of_list (List.rev st.cards);
      ports = Array.of_list (List.rev st.ports);
      nodes;
    }
  in
  let names = Array.make (nodes + 1) "0" in
  List.iteri (fun i name -> names.(nodes - i) <- name) st.node_names;
  { ir; names; nl = lazy (Spice_ir.to_netlist ir) }

let parse ~next =
  let st = fresh_state () in
  (try Spice_lex.iter ~next ~f:(process_line st)
   with Spice_lex.Error (line, msg) -> raise (Parse_error (line, msg)));
  finish st

let parse_string text = parse ~next:(Spice_lex.next_of_string text)
let parse_channel ic = parse ~next:(Spice_lex.next_of_channel ic)

let parse_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse_channel ic)

let netlist t = Lazy.force t.nl
let ir t = t.ir

let node_name t n =
  if n >= 0 && n < Array.length t.names then t.names.(n) else string_of_int n

(* Render a netlist in the canonical dialect (first-use node numbering,
   %.17g values). *)
let to_string (nl : Netlist.t) = Spice_ir.render (Spice_ir.canonical (Spice_ir.of_netlist nl))

let write_file path nl =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string nl))
