(** Householder QR factorisations of dense real matrices.

    [thin], [orth] and the packed-factor operations run on the
    panel-blocked kernels of {!Par_kernel} and accept a [?workers] pool
    size; results are bitwise-identical for any worker count, and
    bitwise-identical to the classic unblocked serial sweep (the test
    oracle [Unblocked_qr]). *)

type pivoted = {
  q : Mat.t;  (** thin orthonormal factor, [m x min m n] *)
  r : Mat.t;  (** upper-triangular factor of the permuted matrix *)
  jpvt : int array;  (** column permutation: column [k] of [q*r] is column [jpvt.(k)] of the input *)
  rank : int;  (** numerical rank detected during pivoting *)
}
(** Result of a column-pivoted (rank-revealing) factorisation. *)

type packed = Par_kernel.qr
(** Packed Householder factor: R in the upper triangle, normalised
    reflector tails below it, plus the reflector scalings.  Lets callers
    multiply by Q or Q^T without materialising the [m x n] orthonormal
    factor — cheaper whenever the product is consumed once. *)

val thin : ?workers:int -> Mat.t -> Mat.t * Mat.t
(** [thin a] for [a] of shape [m x n] with [m >= n] returns [(q, r)] with
    [a = q * r], [q] of shape [m x n] with orthonormal columns and [r]
    upper triangular. *)

val factorize : ?workers:int -> Mat.t -> packed
(** Panel-blocked Householder factorisation of a matrix of any shape. *)

val r_factor : packed -> Mat.t
(** The [min m n x n] upper-triangular (trapezoidal when wide) factor. *)

val thin_q : ?workers:int -> ?cols:int -> packed -> Mat.t
(** The first [cols] (default [min m n]) columns of Q, materialised. *)

val apply_q : ?workers:int -> packed -> Mat.t -> Mat.t
(** [apply_q f x] is [Q * x]: [x] may have [m] rows, or [min m n] rows
    (implicitly zero-padded, i.e. [Q_thin * x]); the result has [m]
    rows. *)

val apply_qt : ?workers:int -> packed -> Mat.t -> Mat.t
(** [apply_qt f x] is [Q^T * x] for [x] with [m] rows; rows
    [0 .. min m n - 1] of the result are [Q_thin^T * x]. *)

val apply_qt_vec : packed -> float array -> float array
(** {!apply_qt} on a single vector. *)

val pivoted : ?tol:float -> Mat.t -> pivoted
(** Column-pivoted Householder QR of a matrix of any shape.  Elimination
    stops when the largest remaining column norm falls below [tol] (default
    [1e-12]) relative to the largest original column norm; the number of
    completed steps is the [rank] estimate (the RRQR of the paper's Section
    V-C discussion).  The elimination is inherently sequential (each pivot
    depends on the previous downdates) and stays serial. *)

val pivoted_factor : ?tol:float -> Mat.t -> packed * int array * int
(** Same elimination as {!pivoted}, returning the packed factor, the
    column permutation and the rank without forming Q — pair with
    {!apply_q}/{!apply_qt} when the orthonormal factor itself is never
    needed. *)

val orth : ?tol:float -> ?workers:int -> Mat.t -> Mat.t
(** Orthonormal basis of the column space, via the pivoted elimination.
    Handles rank-deficient and wide inputs; a numerically zero input
    yields a basis with zero columns. *)
