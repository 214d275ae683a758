(** Left-looking sparse LU with partial pivoting (Gilbert-Peierls) on real
    matrices, and the depth-first reach it shares with the complex
    kernel of {!Shifted}.  The nonzero pattern of each column's
    triangular solve is found by depth-first search on the graph of the
    computed L columns, so the numeric work is proportional to the
    arithmetic performed. *)

exception Singular of int
(** Raised with the failing column when no nonzero pivot exists — by
    this module and by every complex factorisation in {!Shifted}. *)

type factor
(** A computed factorisation [P A Q = L U]. *)

val factorize : ?ordering:Ordering.scheme -> Csc.t -> factor
(** Factor a square CSC matrix with the given column pre-ordering
    (default {!Ordering.Natural}) and partial row pivoting. *)

val solve_vec : factor -> float array -> float array
(** Solve [A x = b]. *)

val solve_transposed_vec : factor -> float array -> float array
(** Solve [A^T x = b] with the same factorisation. *)

val reach :
  colptr:int array ->
  rowind:int array ->
  int ->
  l_colptr:int array ->
  l_rowind:int array ->
  pinv:int array ->
  mark:int array ->
  stamp:int ->
  topo:int array ->
  stack:int array ->
  child_pos:int array ->
  int
(** [reach ~colptr ~rowind jcol ~l_colptr ~l_rowind ~pinv ...] is the
    symbolic half of one left-looking step: the rows reachable from the
    nonzeros of column [jcol] of the matrix [(colptr, rowind)] through
    the graph of the L columns computed so far (L column [k] holds
    original row indices in [l_rowind.(l_colptr.(k) .. l_colptr.(k+1) - 1)];
    [pinv] maps each original row to its pivot step, or [-1]).  The rows
    are written to [topo.(0 .. count - 1)] in reverse topological order
    and [count] is returned; every reached row is marked with [stamp].
    [stack] and [child_pos] are length-[n] workspaces.  Allocates
    nothing. *)

val sort_range : int array -> int -> int -> unit
(** [sort_range a lo hi] sorts [a.(lo .. hi - 1)] ascending in place
    (heapsort, no allocation): how both kernels store each U column in
    ascending pivot order. *)

val grow_int : int array -> int -> int array
(** [grow_int a need] is [a] when it holds [need] elements, else a copy
    of [a] at least doubled: the arenas L and U grow in. *)

val grow_float : float array -> int -> float array
(** {!grow_int} for value arenas. *)
