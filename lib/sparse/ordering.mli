(** Fill-reducing column orderings computed on the symmetrised nonzero
    pattern of a square sparse matrix.  A permutation [p] means "eliminate
    original index [p.(k)] at step [k]". *)

type scheme =
  | Natural  (** identity ordering *)
  | Rcm  (** reverse Cuthill-McKee: bandwidth reduction *)
  | Nested_dissection  (** {!nested_dissection}: separators last *)
  | Lower_fill
      (** whichever of RCM and nested dissection has the smaller symbolic
          fill ({!lower_fill}) — the default of every shifted
          factorisation *)
  | Given of int array
      (** a precomputed permutation, reused verbatim — this is how a
          symbolic analysis done once per system is replayed across the
          many shifted factorisations of a multi-point sweep *)

val natural : int -> int array
(** Identity permutation. *)

val rcm : int array -> int array -> int -> int array
(** [rcm colptr rowind n] is the reverse Cuthill-McKee order of the pattern
    given in CSC arrays.  Handles disconnected graphs. *)

type goal =
  | Leaves of int  (** split into (at most) this many leaves *)
  | Budget of int  (** split while a subset holds more vertices than this *)

type dissection =
  | Leaf of int array  (** a subset left whole (ascending indices) *)
  | Node of { sep : int array; left : dissection; right : dissection }
      (** a separator (ascending) with no pattern entry joining [left]
          to [right] *)

val dissect : int array -> int array -> int -> goal:goal -> depth_cap:int -> dissection
(** [dissect colptr rowind n ~goal ~depth_cap] recursively splits the
    symmetrised pattern by BFS level-set separators: each step removes one
    whole level of a BFS from a pseudo-peripheral start (restarted at the
    smallest unvisited index on disconnected subsets), chosen by the score
    [|sep|/n + 0.5 |frac - target|], ties to the lowest level.  Recursion
    stops when the goal is met, a subset has fewer than three levels, or
    the depth reaches [depth_cap].  A pure function of the pattern and the
    goal: the one routine behind {!nested_dissection} and the hierarchy. *)

val nested_dissection : int array -> int array -> int -> int array
(** Post-order of {!dissect} under a fixed 32-vertex leaf budget: left
    subtree, right subtree, separator; leaves in ascending index. *)

val fill : int array -> int array -> int -> int array -> int
(** [fill colptr rowind n p] is nnz(L), diagonal included, of the
    Cholesky factor of the symmetrised pattern eliminated in order [p]
    (elimination tree plus row-subtree walks, O(nnz(L))). *)

type pick = {
  nested : bool;  (** nested dissection won; otherwise RCM *)
  rcm_fill : int;  (** {!fill} under RCM *)
  nd_fill : int;  (** {!fill} under nested dissection *)
}

val lower_fill : int array -> int array -> int -> int array * pick
(** The lower-fill of RCM and nested dissection, with ties to RCM, and
    the evidence for the choice.  A pure function of the pattern. *)

val compute : scheme -> int array -> int array -> int -> int array
(** Dispatch on the scheme. *)
