(** Circuit netlists.  Nodes are non-negative integers with [0] = ground.
    Ports are current-injection sources whose observed output is the port
    node voltage, so an MNA realisation of the netlist is the
    impedance-parameter state-space model of the parasitic network (the
    setting of all the paper's examples). *)

type element =
  | Resistor of { n1 : int; n2 : int; ohms : float }
  | Capacitor of { n1 : int; n2 : int; farads : float }
  | Inductor of { n1 : int; n2 : int; henries : float }
      (** current flows [n1 -> n2] through the inductor's state variable *)
  | Mutual of { l1 : int; l2 : int; coupling : float }
      (** coupling coefficient between the [l1]-th and [l2]-th inductors *)

type t
(** A mutable netlist under construction. *)

val create : unit -> t
(** Empty netlist. *)

val add_r : t -> int -> int -> float -> unit
(** [add_r t n1 n2 ohms] adds a resistor; self-loops are ignored.  Values
    must be nonzero and finite; negative values are legal (unstamping
    synthesis of reduced models produces them). *)

val add_c : t -> int -> int -> float -> unit
(** [add_c t n1 n2 farads] adds a capacitor (nonzero finite value). *)

val add_l : t -> int -> int -> float -> int
(** [add_l t n1 n2 henries] adds an inductor (nonzero finite value) and
    returns its index, for use with {!add_mutual}. *)

val add_mutual : t -> int -> int -> float -> unit
(** [add_mutual t l1 l2 k] couples two previously added inductors with
    coefficient [k], [|k| < 1]. *)

val add_port : t -> int -> int
(** [add_port t n] declares node [n] (which must not be ground) a
    current-injection port and returns the port index. *)

val elements : t -> element list
(** Elements in order of addition. *)

val ports : t -> int list
(** Port nodes in order of declaration. *)

val node_count : t -> int
(** Largest node index seen (internal nodes are 1..node_count). *)

val inductor_count : t -> int
(** Number of inductors (= extra MNA states). *)

val port_count : t -> int
(** Number of declared ports. *)

val check_reducible : t -> (unit, string) result
(** [Error] naming what a reduction lacks: a declared port, or an
    internal node.  The CLI and the daemon refuse a netlist through it. *)

val stats : t -> int * int * int * int
(** Counts of (resistors, capacitors, inductors, mutual couplings). *)
