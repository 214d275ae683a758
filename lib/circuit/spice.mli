(** Streaming reader/writer for a SPICE-like netlist dialect, so that
    externally extracted parasitic networks can be fed to the reduction
    algorithms.

    The reader runs line-at-a-time on a {!Spice_lex} token stream (['+']
    continuations, ['*']/[';']/['$'] comments, blank lines, case-insensitive
    directives) and parses into the canonical {!Spice_ir} form — the
    single source of truth for MNA stamping, re-rendering and the
    content-addressed model store.  Million-element extractions stream
    through without materialising a line list.

    Supported cards: [Rname n1 n2 value], [Cname n1 n2 value],
    [Lname n1 n2 value], [Kname Lname1 Lname2 k],
    [Xname n1 .. nN subname] (instances flattened on the fly),
    [.subckt]/[.ends] definitions, [.model name type value]
    (type [r]/[res], [c]/[cap], [l]/[ind]), [.port node] and [.end].
    Node ["0"] or ["gnd"] is ground; any other token is a named node.
    Values accept the usual SI suffixes (f p n u m k meg g t) and may be
    negative (synthesised ROM netlists need negative branch elements);
    zero and non-finite values are rejected with their line number. *)

exception Parse_error of int * string
(** Line number (1-based) and message.  Prints as
    ["netlist parse error at line 3: bad numeric value: banana"]. *)

val parse_value : line:int -> string -> float
(** Parse one numeric field with optional SI suffix.
    @raise Parse_error on malformed input. *)

type t
(** A parsed netlist together with its node-name table. *)

val parse_string : string -> t
(** Parse a netlist from text (streamed by index, no line list).
    @raise Parse_error on the first malformed card. *)

val parse_channel : in_channel -> t
(** Parse a netlist from a channel, one line at a time. *)

val parse_file : string -> t
(** Parse a netlist file through {!parse_channel}. *)

val netlist : t -> Netlist.t
(** The stamped-ready netlist (built from the IR on first use). *)

val ir : t -> Spice_ir.t
(** The parsed canonical IR (node ids in first-use order). *)

val node_name : t -> int -> string
(** Original name of an internal node number (ground is ["0"]).  Instance
    nodes carry their scoped name ([inst.node]). *)

val to_string : Netlist.t -> string
(** Render a netlist in the canonical dialect: first-use node numbering
    and [%.17g] values, so [to_string] output re-parses to an identical
    netlist and re-renders byte-for-byte ({!Spice_ir.canonical}). *)

val write_file : string -> Netlist.t -> unit
(** [to_string] to a file. *)
