(** Thin singular value decomposition of dense real matrices by one-sided
    Jacobi rotations (Hestenes).

    Chosen over bidiagonalisation for robustness and simplicity: it
    computes small singular values to high relative accuracy, which matters
    because PMTBR order control reads 10-15 decades of singular-value decay
    (paper Fig. 5).

    Every entry point runs the round-robin rotation schedule of
    {!Par_kernel.jacobi_rounds} — parallel across the disjoint column
    pairs of each round, bitwise-identical for any [workers] — and
    shortcuts clearly tall blocks (rows > 2 * cols) through a blocked QR,
    rotating only the small triangular factor.  The serial cyclic sweep
    it replaced is kept with the test oracles as the reference the
    singular values are pinned against ([1e-12 * sigma_max]). *)

type t = {
  u : Mat.t;  (** left singular vectors, [m x min m n], orthonormal columns *)
  sigma : float array;  (** singular values, descending *)
  v : Mat.t;  (** right singular vectors, [n x min m n] *)
}

val decompose : ?workers:int -> Mat.t -> t
(** [decompose a] satisfies [a = u * diag sigma * v^T].  [workers] sizes
    the kernel pool (default {!Par_kernel.default_workers}); the result is
    bitwise-identical for any value. *)

val left : ?workers:int -> Mat.t -> Mat.t * float array
(** [left a] is [(u, sigma)] of {!decompose}, bit for bit, without the
    right singular vectors: a tall (or square) block accumulates no
    right-hand rotations, and a wide one forms only the rotations of its
    transpose, which are its left vectors. *)

val values : ?workers:int -> ?threshold:float -> Mat.t -> float array
(** Singular values only, descending.  Skips the U/V accumulation of
    [decompose] but runs the identical rotation sweeps, so at the default
    [threshold] ([1e-15]) the values match [decompose]'s bit for bit.  A
    looser [threshold] stops the sweeps earlier, computing every value to
    roughly that relative accuracy — meant for convergence monitors that
    only compare values between iterations, not for final answers. *)

val rank : ?tol:float -> ?workers:int -> Mat.t -> int
(** Number of singular values above [tol] (default [1e-12]) relative to the
    largest. *)
