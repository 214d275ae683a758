(** PMTBR — Algorithm 1 of the paper.

    Sample [z_i = (s_i E - A)^{-1} B] at weighted frequency points, SVD the
    realified sample matrix [ZW], keep the dominant left singular vectors,
    and reduce by congruence projection.  The singular values of [ZW]
    approximate the Hankel singular values (Section III-B) and drive order
    and error control (Sections V-B/C). *)

open Pmtbr_la
open Pmtbr_lti

type result = {
  rom : Dss.t;  (** reduced model *)
  basis : Mat.t Lazy.t;
      (** projection basis V, [n x q], orthonormal columns — lifted to
          state space only when forced, which must happen before the
          cache is extended ([Invalid_argument] otherwise) *)
  singular_values : float array;  (** all singular values of ZW, descending *)
  samples : int;  (** number of frequency points consumed *)
  stats : Sample_cache.stats;
      (** counters of the cache the run finished from: [solves = points]
          certifies that no shift was solved twice *)
}

val basis_of_cache :
  Sample_cache.t -> scale:float -> ?order:int -> ?tol:float -> ?workers:int -> unit ->
  Mat.t * float array
(** The basis half of {!of_cache}: left singular vectors of
    {!Sample_cache.svd_operand} ({!Pmtbr_la.Svd.left}), order choice
    ({!Pmtbr_lti.Tbr.truncation_order} with floor [1e-14]) and the dominant
    vectors lifted to state space ({!Sample_cache.lift}).  Returns the
    [n x q] basis and all singular values, descending.  For callers that
    project elsewhere, such as the hierarchical recombination. *)

val of_cache :
  Dss.t -> Sample_cache.t -> scale:float -> ?order:int -> ?tol:float -> ?workers:int ->
  samples:int -> unit -> result
(** The finish every sampled PMTBR run goes through: the dominant left
    singular vectors [U_q] of {!Sample_cache.svd_operand} (the assembled
    [ZW] for a cache wider than the state dimension, the small [R D]
    otherwise) and the congruence projection of {!Sample_cache.pencil}
    onto them — for a tall cache the Galerkin model on [V = Q U_q] at
    [O(c^2 q)], never touching the state dimension once the pencil is
    built; [basis] lifts [V] only when forced.  [sys] must be
    {!Sample_cache.system} of the cache (physically): anything else
    raises [Invalid_argument].  [scale] is the prefix rescaling applied
    at assembly.  [workers] sizes the dense-kernel pool
    ({!Pmtbr_la.Par_kernel}); results are bitwise-identical for any
    value. *)

val reduce : ?order:int -> ?tol:float -> ?workers:int -> Dss.t -> Sampling.point array -> result
(** One-shot PMTBR with a fixed point set: every shift solved once into a
    {!Sample_cache}, finished by {!of_cache} — the same bits the daemon
    returns for the job.  [workers] sizes both the shifted-solve domain
    pool of {!Shift_engine} and the dense-kernel pool of the reduction
    stage (default: all recommended domains); the result is
    bitwise-independent of the worker count. *)

val reduce_uniform : ?order:int -> ?tol:float -> ?workers:int -> Dss.t -> w_max:float ->
  count:int -> result
(** Convenience: uniform sampling of [0, w_max]. *)

type monitor = Monitor_svd | Monitor_rrqr
(** The per-batch order monitor of an adaptive loop. *)

val monitor_values : ?workers:int -> Sample_cache.t -> monitor:monitor -> scale:float -> float array
(** This batch's monitor values, from the cache alone (no solve), at
    prefix rescaling [scale]: [Monitor_svd] gives the singular values of
    {!Sample_cache.svd_operand} (to 1e-10 relative — the final finish
    stays full precision), [Monitor_rrqr] the pivoted-R diagonal of the
    small factor normalised by its first entry (only that profile
    converges as prefix weights are rescaled). *)

val settled :
  ?order:int -> ?tol:float -> converge_tol:float -> columns:int -> prev:float array option ->
  float array -> bool
(** The stopping rule of every adaptive loop over a sample cache, given
    this batch's monitor values: the leading values (up to the
    {!Pmtbr_lti.Tbr.choose_order} order) have converged to [converge_tol] relative
    change against [prev], the tail is below [tol] (default [1e-10];
    skipped for an explicit [order] without [tol]), and the cache holds at
    least twice the model order in [columns] (Section V-B). *)

val reduce_adaptive : ?order:int -> ?tol:float -> ?batch:int -> ?converge_tol:float ->
  ?workers:int -> Dss.t -> Sampling.point array -> result
(** On-the-fly order control (Section V-C): consume the points in
    bit-reversed batches of [batch] (default 8) through an incremental
    {!Sample_cache} — each shift is solved exactly once for the whole run,
    prefix-weight rescaling is a diagonal applied at assembly time, and
    order is monitored per batch from the singular values of the cache's
    {!Sample_cache.svd_operand}.  Stops when {!settled} (with
    [converge_tol] default 2%) or the points run out; with an explicit
    [order] and no [tol], leading convergence alone decides.
    [result.samples] reports how many points were actually used. *)

val reduce_adaptive_rrqr : ?order:int -> ?tol:float -> ?batch:int -> ?converge_tol:float ->
  ?workers:int -> Dss.t -> Sampling.point array -> result
(** Like {!reduce_adaptive}, but monitoring convergence with a
    rank-revealing (column-pivoted) QR of the cache's small factor per
    batch — the cheaper order-control machinery Section V-C recommends;
    one SVD at the end builds the final basis.  The stopping criterion
    applies {!settled} to the normalised R-diagonal profile (default
    [converge_tol] 5%), so a run cannot stop on leading-value convergence
    alone with an under-resolved truncation tail. *)

val sample_singular_values : ?workers:int -> Dss.t -> Sampling.point array -> float array
(** Singular values of the sample matrix only (paper Figs. 5 and 8): the
    values {!reduce} reports, from the same SVD operand, without forming
    the basis. *)

val hankel_estimates : ?workers:int -> Dss.t -> Sampling.point array -> float array
(** Hankel-singular-value estimates [sigma(ZW)^2 / pi]: the eigenvalues of
    the sampled Gramian [(1/pi)(ZW)(ZW)^T], which in the paper's symmetric
    case are exactly the Hankel singular values.  Converges as the
    quadrature does. *)
