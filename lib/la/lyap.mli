(** Lyapunov and Sylvester matrix equations via the (complex) Schur form
    (Bartels-Stewart).

    The decomposition of [A] is a first-class value so that sweeps solving
    many equations with the same [A] and different right-hand sides (the
    paper's Fig. 3 varies only [B]) factor [A] once. *)

exception Unstable_pencil
(** Raised when an eigenvalue pairing [lambda_i + lambda_j] is numerically
    zero: the equation has no (unique) solution, e.g. for a marginally
    stable [A]. *)

type factor
(** A reusable spectral factorisation of [A]: a symmetric eigendecomposition
    when [A] is symmetric, a complex Schur form otherwise. *)

val factor : Mat.t -> factor
(** Factor [A], automatically using the fast symmetric path when [A] is
    symmetric. *)

val factor_general : Mat.t -> factor
(** Force the general (Schur) path, needed for {!solve_cross_with} when the
    cross equation will be solved with a right-hand side that is not
    symmetric. *)

val solve_with : factor -> Mat.t -> Mat.t
(** [solve_with f q] solves [A X + X A^T + Q = 0] for symmetric [Q] and
    returns the symmetric solution [X]. *)

val solve : Mat.t -> Mat.t -> Mat.t
(** [solve a q] is [solve_with (factor a) q]. *)

val solve_cross_with : factor -> Mat.t -> Mat.t
(** [solve_cross_with f q] solves the cross-Gramian Sylvester equation
    [A X + X A + Q = 0] (paper Section V-D); the solution is generally not
    symmetric. *)

val solve_cross : Mat.t -> Mat.t -> Mat.t
(** One-shot variant of {!solve_cross_with}. *)

val lyapunov_residual : Mat.t -> Mat.t -> Mat.t -> float
(** Frobenius norm of [A X + X A^T + Q]; used by the tests. *)

val descriptor_residual : e:Mat.t -> a:Mat.t -> Mat.t -> Mat.t -> float
(** [descriptor_residual ~e ~a x q] is the Frobenius norm of the
    generalised residual [A X E^T + E X A^T + Q] — what the low-rank
    Gramian solvers drive to zero. *)

val sylvester_cross_residual : Mat.t -> Mat.t -> Mat.t -> float
(** Frobenius norm of [A X + X A + Q]. *)
