(** Wire protocol of the reduction service: length-prefixed frames over a
    Unix-domain stream socket, each frame a line-oriented payload.

    {b Framing.}  A frame is the ASCII decimal byte length of the payload,
    a newline, then exactly that many payload bytes.  The length line is
    capped at {!length_digits} digits and payloads at a caller-chosen
    [max_bytes], so a malformed or hostile peer fails fast with a protocol
    error instead of a blown buffer.

    {b Payload.}  Headers are lines of [key SP value]; an empty line
    terminates them and everything after it is the opaque body (a request
    carries the inline netlist text there).  The first header line names
    the frame kind ([job reduce], [job ping], ...; [status ok] /
    [status error] for responses). *)

val default_max_frame : int
(** Default payload cap: 8 MiB. *)

val length_digits : int
(** Maximum digits accepted in the length prefix (12). *)

type frame_error =
  | Eof  (** clean end of stream before a length byte *)
  | Malformed of string  (** bad length line or truncated payload *)
  | Oversized of int  (** declared payload length beyond [max_bytes] *)

val frame_error_message : frame_error -> string

val write_frame : out_channel -> string -> unit
(** Write one frame (length prefix + payload) and flush. *)

val read_frame : ?max_bytes:int -> in_channel -> (string, frame_error) result
(** Read one frame; never reads past it. *)

(** {1 Requests} *)

type job = {
  meth : Pmtbr_core.Method.t;  (** a method the daemon serves *)
  options : Pmtbr_core.Method.options;  (** as {!Pmtbr_core.Method.validate} accepted them *)
  export : bool;  (** synthesize the ROM back to a netlist in the response body *)
  netlist : string;  (** inline SPICE-dialect netlist text *)
}

type request =
  | Reduce of job
  | Ping
  | Stats  (** store counters snapshot *)
  | Shutdown

val encode_request : request -> string
(** A reduce job's header keys are the options' names: [method], [band]
    (["LO:HI"] rad/s), [tol], [order], [samples], [partition] (a count or
    [auto]), [max-part-states], [interface-tol] and [export] ([0]/[1]). *)

val parse_request : string -> (request, string) result
(** Parsing types every header, refuses by name a method the daemon does
    not serve and a header it does not know, and checks the options through
    {!Pmtbr_core.Method.validate}; an error is a human-readable message for
    the error response. *)

(** {1 Responses} *)

type response = {
  status : (unit, string) result;  (** [Error msg] carries the failure *)
  fields : (string * string) list;  (** informational key/value pairs *)
  body : string;
      (** opaque payload: the synthesized ROM netlist for an [export]
          reduce job, empty otherwise *)
}

val ok : ?fields:(string * string) list -> ?body:string -> unit -> response
val error : string -> response

val encode_response : response -> string
val parse_response : string -> (response, string) result

val field : response -> string -> string option
(** First value bound to a key, if any. *)
