(** Descriptor state-space systems [E dx/dt = A x + B u, y = C x].

    Two concrete representations share one interface: full models straight
    out of MNA keep E and A sparse; reduced models are small and dense.
    All reduction algorithms only need the operations below (shifted
    solves, multiplication by E/A, and the port matrices). *)

open Pmtbr_la
open Pmtbr_sparse

type t =
  | Sparse of {
      e : Triplet.t;
      a : Triplet.t;
      pencil : Shifted.pencil;
      b : Mat.t;
      c : Mat.t;
      n : int;
    }
  | Dense of { e : Mat.t; a : Mat.t; b : Mat.t; c : Mat.t }

val of_mna : Pmtbr_circuit.Mna.system -> t
(** Wrap a stamped MNA system (sparse representation). *)

val of_netlist : Pmtbr_circuit.Netlist.t -> t
(** [of_mna] composed with {!Pmtbr_circuit.Mna.stamp}. *)

val of_dense : e:Mat.t -> a:Mat.t -> b:Mat.t -> c:Mat.t -> t
(** Dense descriptor system. *)

val of_standard : a:Mat.t -> b:Mat.t -> c:Mat.t -> t
(** Dense standard-form system ([E = I]). *)

val order : t -> int
(** Number of states. *)

val inputs : t -> int
(** Number of inputs (ports). *)

val outputs : t -> int
(** Number of outputs. *)

val b_matrix : t -> Mat.t
val c_matrix : t -> Mat.t

val e_dense : t -> Mat.t
(** Dense copy of E (cheap for reduced models; O(n^2) memory for full
    ones — used only by the exact-TBR baseline). *)

val a_dense : t -> Mat.t
(** Dense copy of A. *)

val apply_e : t -> Mat.t -> Mat.t
(** [apply_e sys v] is [E * v] for dense [v]. *)

val apply_a : t -> Mat.t -> Mat.t
(** [apply_a sys v] is [A * v]. *)

type shifted_factor
(** A reusable factorisation of [(sE - A)] at one shift: the unboxed
    sparse LU of {!Pmtbr_sparse.Shifted} for sparse systems (it serves
    both solve sides), dense LU for dense ones. *)

val factor_shifted : t -> Complex.t -> shifted_factor

val solve_factored : shifted_factor -> Mat.t -> Complex.t array array
(** [solve_factored f r] solves [(sE - A) X = R] for a dense real
    right-hand side; one complex column per column of [R].  It is
    {!multi_solve_factored} with [~hermitian:false]. *)

type multi_shift
(** A reusable multi-shift solver handle.  For sparse systems the pattern
    assembly, fill-reducing ordering and elimination analysis of
    [(sE - A)] are computed once at creation (against a template shift);
    each subsequent shift pays only a numeric refactorisation.  Immutable
    after creation — safe to share across domains. *)

val multi_shift : ?template:Complex.t -> t -> multi_shift
(** Build the handle; [template] (default [j1]) picks the shift whose
    factorisation serves as the structural template. *)

val multi_ordering : multi_shift -> Ordering.pick option
(** The fill rule's pick and both fill counts; [None] for a dense system. *)

val multi_factor : multi_shift -> hermitian:bool -> Complex.t -> shifted_factor
(** Factor [(sE - A)] at one shift through the handle.  With
    [~hermitian:true] the factor is prepared for [(sE - A)^H x = r]
    solves. *)

val multi_solve_factored : shifted_factor -> hermitian:bool -> Mat.t -> Complex.t array array
(** The one solve dispatcher: [(sE - A) X = R], or [(sE - A)^H X = R]
    with [~hermitian:true].  A sparse factor serves both sides; a dense
    one solves the side {!multi_factor} prepared it for. *)

val shifted_solve : t -> Complex.t -> Complex.t array array
(** One-shot [(sE - A)^{-1} B]. *)

val shifted_solve_rhs : t -> Complex.t -> Mat.t -> Complex.t array array
(** One-shot [(sE - A)^{-1} R] for an arbitrary right-hand side. *)

val to_standard : t -> Mat.t * Mat.t * Mat.t
(** [(E^{-1}A, E^{-1}B, C)]; requires invertible E.  Only used by the
    exact-TBR baselines — PMTBR never needs it (paper Section V-A).
    @raise Invalid_argument when E is exactly singular. *)

exception Not_rc_like
(** Raised by {!symmetrize_rc} when E is not diagonal positive or A is not
    symmetric-stampable. *)

val symmetrize_rc : t -> t
(** Symmetrised standard form for RC-structured systems (diagonal SPD E):
    with [x~ = E^{1/2} x], [A~ = E^{-1/2} A E^{-1/2}] is symmetric and a
    current-driven RC network has [C~ = B~^T] — the paper's symmetric case,
    in which the singular values of the PMTBR sample matrix estimate the
    Hankel singular values directly.
    @raise Not_rc_like on non-RC systems. *)

val project_congruence : t -> Mat.t -> t
(** [project_congruence sys v] is the (dense) reduced system
    [(V^T E V, V^T A V, V^T B, C V)] — the Galerkin projection used by
    PMTBR and PRIMA, which preserves passivity for RLC-structured
    systems. *)

val project_oblique : t -> w:Mat.t -> v:Mat.t -> t
(** Petrov-Galerkin projection with distinct left/right bases
    [(W^T E V, W^T A V, W^T B, C V)]. *)
