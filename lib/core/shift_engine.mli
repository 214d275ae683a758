(** Parallel multi-shift sampling engine.

    Runs the shifted-solve loop [z_k = (s_k E - A)^{-1} B] — the entire
    cost of PMTBR (paper eq. 8-11) — on {!Pmtbr_la.Par_kernel.fan}, one
    job per shift, reusing one symbolic sparse-LU analysis across all
    shifts (see {!Pmtbr_sparse.Shifted.prepare}).

    {b Determinism contract}: each task's columns are a pure function of
    the system and the task, and are returned in task order, so runs
    with any worker count produce bitwise-identical columns (and hence
    identical singular values).  CI enforces this. *)

open Pmtbr_la
open Pmtbr_lti

type task = {
  s : Complex.t;  (** the shift *)
  rhs : Mat.t;  (** right-hand side of the shifted solve *)
  hermitian : bool;  (** solve [(sE - A)^H x = rhs] instead (observability side) *)
}

type stats = {
  solves : int;  (** completed shifted solves *)
  factor_s : float;  (** summed per-task factorisation seconds *)
  solve_s : float;  (** summed per-task triangular-solve + realify seconds *)
  pool : Par_kernel.pool;  (** the fan that ran the tasks *)
}

val run : ?workers:int -> ?ms:Dss.multi_shift -> Dss.t -> task array -> float array array * stats
(** Solve every task and return the raw, unweighted realified columns
    (step 5 of Algorithm 1) in task order: a real shift contributes its
    solution's real parts, a complex one [Re z_j] then [Im z_j] for each
    right-hand-side column [j].  [workers] follows
    {!Par_kernel.pool_size}.  The first task's shift is the template for
    the shared symbolic analysis; [ms] supplies a pre-built handle
    instead, so incremental callers ({!Sample_cache}) share one symbolic
    analysis across every batch of an adaptive run.  An exception raised
    by any task (e.g. [Sparse_lu.Singular]) is re-raised here,
    deterministically the one with the lowest task index. *)

val is_effectively_real : Complex.t -> bool
(** Whether a sample point is treated as real (one column per input
    instead of a realified pair). *)
