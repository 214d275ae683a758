(** Low-rank solvers for large-scale Lyapunov equations.

    The dense Bartels-Stewart solver in {!Lyap} is O(n^3) and caps the
    exact-TBR baseline at a few hundred states.  This module computes a
    low-rank Cholesky-like factor [Z] with [X ~= Z Z^T] of the descriptor
    Lyapunov equation

    {[ A X E^T + E X A^T + B B^T = 0 ]}

    from shifted solves only — the operation the sparse multi-shift
    machinery already does fast — so exact balanced truncation scales to
    the same sizes as PMTBR (ROADMAP item 2; Giamouzis et al.,
    arXiv 2411.13571 / 2311.08478).

    The engine, {!lr_adi}, is the low-rank ADI iteration with
    real/complex-pair shift handling (Benner-Kuerschner-Saak double step,
    so all stored columns are real), Penzl-style heuristic shift
    selection from Ritz values ({!penzl_shifts}), and low-rank
    residual-norm stopping — the residual Gramian stays in factored form
    [W W^T], so its norm is a small Gram computation per step.

    The module is operator-abstract (no sparse or system dependency):
    callers supply {!ops}, and the LTI layer's [Lyap_ops.ops_of_dss]
    wires a descriptor system's shared multi-shift handle in, sparse or
    dense.

    {b Determinism}: the iteration is serial and fixed-order over
    deterministic kernels, so results are bitwise-reproducible and
    independent of any worker-pool size used by the caller around them. *)

type ops = {
  n : int;  (** state dimension *)
  mul_e : Mat.t -> Mat.t;  (** [E * V] for dense [V] *)
  mul_a : Mat.t -> Mat.t;  (** [A * V] *)
  solve_shift : Complex.t -> Mat.t -> Complex.t array array;
      (** [solve_shift p r] solves [(A + p E) X = R] for a dense real
          right-hand side; one complex column per column of [R].  ADI
          calls it with [Re p < 0]; shift selection also uses [p = 0]
          (plain [A^{-1}]). *)
  solve_e : Mat.t -> Mat.t;  (** [E^{-1} R]; requires invertible [E] *)
}
(** The operator interface the engine consumes.  Implementations are
    expected to be pure in their arguments (any caching must be
    value-transparent) so that runs are reproducible. *)

type stop =
  | Residual_fro
      (** stop when [||W W^T||_F <= tol * ||B B^T||_F] — the classic
          low-rank residual criterion, checked after every step *)
  | Band_residual of (Complex.t * float) array
      (** frequency-aware criterion (arXiv 2411.13571): weighted sample
          points [(s_k, w_k)] on the imaginary axis — built from the same
          [Sampling.Bands] machinery PMTBR uses — and the band-limited
          residual [sqrt (sum_k w_k ||(s_k E - A)^{-1} W||_F^2)] must
          fall below [tol] times the same functional of [B].  Checked
          once per shift cycle (each check costs one extra solve per
          point, through the same factor cache). *)

type stats = {
  steps : int;  (** ADI steps taken (a conjugate pair counts as 2) *)
  solves : int;  (** [solve_shift] calls (Ritz/band solves included) *)
  columns : int;  (** columns of the returned factor [Z] *)
  compressions : int;
      (** eigendecompositions the accumulator ran: one per flush while
          the factor stays tall, plus one to factor the Gramian once it
          has gone wide (see {!lr_adi}) *)
  residuals : float array;
      (** relative Frobenius residual-norm history, one entry per
          appended block *)
  converged : bool;  (** whether the stopping criterion was met *)
}

val penzl_shifts : ?num:int -> ?ritz:int -> ops -> Mat.t -> Complex.t array
(** Penzl's heuristic ADI shifts: Ritz values of [E^{-1} A] (Arnoldi,
    [ritz] steps, default 12) approximate the outer spectrum, reciprocal
    Ritz values of [A^{-1} E] the inner one; the union is the candidate
    set over which shifts are chosen greedily to minimise the maximum of
    the ADI rational function.  At most [num] (default 16) shifts come
    back, counting a conjugate pair as two; complex shifts are returned
    once per pair.  Unstable Ritz values are discarded; the fallback when
    nothing survives is the single shift [-1]. *)

val lr_adi :
  ?shifts:Complex.t array ->
  ?num_shifts:int ->
  ?ritz:int ->
  ?tol:float ->
  ?max_steps:int ->
  ?stop:stop ->
  ops ->
  Mat.t ->
  Mat.t * stats
(** [lr_adi ops b] runs the low-rank ADI iteration and returns [(z, st)]
    with [Z Z^T ~= X].  Shifts are cycled until the stopping criterion
    ([stop], default {!Residual_fro} at [tol], default [1e-10]) is met or
    [max_steps] (default 200) ADI steps have run; [shifts] overrides the
    Penzl selection ({!penzl_shifts} with [num_shifts]/[ritz]).  Complex
    shifts are processed as conjugate double steps in real arithmetic
    (one complex solve per pair), so [z] is always real.

    The new columns are collected in blocks and flushed into an
    accumulator every [max 16 (2 * inputs)] columns and once at the end.
    Every flush drops singular values of [Z] below the relative cutoff
    [c = max 1e-8 (0.01 * tol)], the Gram round-off floor (a ~1e-16
    relative perturbation of [Z Z^T]), which keeps the column count near
    the Gramian's numerical rank instead of growing by [inputs] columns
    per step.  How it does so depends on the factor's width against the
    state count [n]:
    - {b tall} (the factor plus the pending blocks hold fewer than [n]
      columns): the flush eigendecomposes the Gram [Z^T Z = U L U^T] and
      keeps [Z U_r], the columns with [l_i > c^2 l_max];
    - {b wide} (they reach [n]): the [n x n] Gramian [X = Z Z^T] replaces
      the factor for good, each later flush adds its block [P] as
      [P P^T], and at the end [z] is [Eig_sym.psd_factor ~tol:(c^2) x],
      the eigenvectors of [X] scaled by [sqrt l_i] under the same keep
      rule.
    Either way a run that takes a step returns at least one column.
    The switch reads only the column count, and the residual factor
    never reads the accumulator, so [steps], [solves], [residuals] and
    [converged] do not depend on it; a factor that stays tall is bitwise
    the every-flush-compressed one, and a wide one differs from it at
    round-off.  [X] holds [8 n^2] bytes and replaces a factor of at
    least [n] columns, so the accumulator never grows past it.
    [stats.compressions] counts the eigendecompositions.
    @raise Invalid_argument on a shift with [Re p >= 0], an empty shift
    array, a right-hand side with the wrong row count, or a
    {!Band_residual} point with a negative or NaN weight. *)
