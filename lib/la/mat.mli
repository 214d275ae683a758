(** Dense real matrices, row-major on a plain [float array].

    Every operation is float code reading [data] directly.  Each repeats
    the arithmetic of the generic scalar-field functor kept in the test
    oracle (its float instance is [Pmtbr_oracle.Generic_mat]) in the
    same order, with the same zero-skip, so every result is bitwise the
    functor's. *)

type t = { rows : int; cols : int; data : float array }
(** Entry [(i, j)] is [data.(i * cols + j)]. *)

exception Singular of int
(** Raised by {!lu} at the first column with no nonzero pivot. *)

val create : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val dims : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val update : t -> int -> int -> (float -> float) -> unit
val copy : t -> t
val of_arrays : float array array -> t
val col : t -> int -> float array
val set_col : t -> int -> float array -> unit
val sub_matrix : t -> row:int -> col:int -> rows:int -> cols:int -> t
val sub_cols : t -> int -> int -> t
val hcat : t -> t -> t
val vcat : t -> t -> t
val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val mv : t -> float array -> float array
val frobenius : t -> float
val max_abs : t -> float

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

(** {1 LU with partial pivoting} *)

type lu

val lu : t -> lu
val lu_solve_vec : lu -> float array -> float array
val lu_solve : lu -> t -> t

val solve : t -> t -> t
(** [solve a b] is [lu_solve (lu a) b]. *)

(** {1 Real-specific conveniences} *)

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
