(** Modified nodal analysis: stamp a netlist into descriptor state-space
    form

    {v
      E dx/dt = A x + B u,   y = C x
    v}

    with [x = [node voltages; inductor currents]], [u] the port injection
    currents and [y] the port node voltages.  For RC networks this yields
    the paper's symmetric case: [A = A^T] negative semidefinite and
    [C = B^T]. *)

type system = {
  e : Pmtbr_sparse.Triplet.t;  (** n x n, capacitance/inductance stamp *)
  a : Pmtbr_sparse.Triplet.t;  (** n x n, conductance/incidence stamp *)
  b : Pmtbr_la.Mat.t;  (** n x p input map *)
  c : Pmtbr_la.Mat.t;  (** p x n output map (= [b^T] here) *)
  n : int;  (** state count = nodes + inductors *)
  nodes : int;
  inductors : int;
}

exception Floating of int list
(** Nodes (ascending) with no element path to ground: their block of
    [sE - A] is singular at every shift.  Prints as
    ["floating nodes (no element path to ground): 3 4"], or past eight
    nodes as their count and the first eight. *)

exception Uncapacitated of int list
(** Nodes (ascending) with no path to ground through capacitors, so [E] is
    singular.  Prints like {!Floating}. *)

val check_capacitive : Netlist.t -> unit
(** What a method that inverts [E] (tbr-passive) needs; the sampled
    methods only factor [sE - A].
    @raise Uncapacitated if some node has no capacitive path to ground. *)

exception No_dc_path of int list
(** Nodes (ascending) with no path to ground through resistors or
    inductors, so [A] is singular.  Prints like {!Floating}. *)

val check_dc_path : Netlist.t -> unit
(** What the exact-TBR methods need besides {!check_capacitive}: a node
    that reaches ground through capacitors alone puts a pole of the
    pencil at [s = 0], where their Gramians do not exist; the sampled
    methods only factor [sE - A] at their sample points.
    @raise No_dc_path if some node has no resistive or inductive path to
    ground. *)

val stamp : Netlist.t -> system
(** Stamp a netlist.  Ground (node 0) is eliminated; the port matrices are
    built from the declared ports in order.
    @raise Floating if some node has no element path to ground. *)
