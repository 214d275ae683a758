(** Dense real matrices (row-major), plus real-specific conveniences.

    All dense-matrix operations shared with the complex instantiation —
    construction, slicing, BLAS-level kernels, LU factorisation — come from
    the {!Gen_mat} functor; see {!Gen_mat.S} for their documentation.

    The accessors and the loops that run on state-dimension operands
    ([get]/[set]/[update], [sub_matrix]/[sub_cols], [transpose], [mul],
    [mv], [gram]) are float code reading [data] directly rather than the
    functor's boxed body.  Each repeats the generic arithmetic in the
    same order with the same zero-skip, so every result is bitwise that
    of [Gen_mat.Make (Scalar.Float)]. *)

include Gen_mat.S with type elt = float

(** {1 Row-range kernels} *)

type ranges = work:int -> int -> (int -> int -> unit) -> unit
(** A row-range runner: [run ~work n f] calls [f lo hi] on disjoint
    ranges covering [\[0, n)] ([work] estimates the scalar operations, for
    runners that decide whether to go parallel).
    {!Par_kernel.parallel_ranges} is one; the serial runner makes a single
    call [f 0 n]. *)

val mul_over : ranges -> t -> t -> t
(** [mul] with its output rows handed out by the runner.  Each output row
    belongs to one range and accumulates in [mul]'s order, so the result
    is bitwise [mul]'s for any split. *)

val mv_over : ranges -> t -> float array -> float array
(** [mv] over ranges of output rows; bitwise [mv]'s for any split. *)

val gram_over : ranges -> t -> t
(** {!gram} over ranges of output rows: every entry still accumulates over
    the rows of its operand in ascending order, so the result is bitwise
    [gram]'s for any split. *)

(** {1 Real-specific conveniences} *)

val of_fun : int -> int -> (int -> int -> float) -> t
(** Alias of [init]. *)

val diag : float array -> t
(** Square diagonal matrix with the given diagonal. *)

val diagonal : t -> float array
(** The main diagonal (length [min rows cols]). *)

val symmetrize : t -> t
(** [(a + a^T) / 2] of a square matrix. *)

val is_symmetric : ?tol:float -> t -> bool
(** Whether [a] is square and symmetric up to [tol] relative to its largest
    entry (default [1e-12]). *)

val gram : t -> t
(** [gram a] is [a^T * a], computed without forming the transpose. *)

val random : ?seed:int -> int -> int -> t
(** Deterministic pseudo-random matrix with entries in [(-1, 1)]; the same
    [seed] always yields the same matrix. *)
