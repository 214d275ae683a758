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
  basis : Mat.t;  (** projection basis V, [n x q], orthonormal columns *)
  singular_values : float array;  (** all singular values of ZW, descending *)
  samples : int;  (** number of frequency points consumed *)
  stats : Sample_cache.stats;
      (** counters of the cache the run finished from: [solves = points]
          certifies that no shift was solved twice (the [rebuild]
          reference loop sums its discarded caches' solves in) *)
}

val choose_order : sigma:float array -> ?order:int -> ?tol:float -> unit -> int
(** Truncation order from singular values: the smallest [q] whose tail sum
    [sum_{i >= q} sigma_i] is at most [tol * sigma_0] (default [1e-10]).
    An explicit [order] wins outright (clamped to the number of values);
    only when [tol] is {e also} given does the tail criterion cap it — the
    default tolerance never shrinks an explicitly requested order. *)

val of_cache :
  Dss.t -> Sample_cache.t -> scale:float -> ?order:int -> ?tol:float -> ?workers:int ->
  samples:int -> unit -> result
(** The finish every sampled PMTBR run goes through: SVD of
    {!Sample_cache.svd_operand} (the assembled [ZW] for a cache wider than
    the state dimension, the small [R D] otherwise), the dominant left
    singular vectors lifted to state space ({!Sample_cache.lift}), and a
    congruence projection.  [scale] is the prefix rescaling applied at
    assembly.  [workers] sizes the dense-kernel pool
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

val settled :
  ?order:int -> ?tol:float -> converge_tol:float -> columns:int -> prev:float array option ->
  float array -> bool
(** The stopping rule of every adaptive loop over a sample cache, given
    this batch's monitor values: the leading values (up to the
    {!choose_order} order) have converged to [converge_tol] relative
    change against [prev], the tail is below [tol] (default [1e-10];
    skipped for an explicit [order] without [tol]), and the cache holds at
    least twice the model order in [columns] (Section V-B). *)

val reduce_adaptive : ?rebuild:bool -> ?order:int -> ?tol:float -> ?batch:int ->
  ?converge_tol:float -> ?workers:int -> Dss.t -> Sampling.point array -> result
(** On-the-fly order control (Section V-C): consume the points in
    bit-reversed batches of [batch] (default 8) through an incremental
    {!Sample_cache} — each shift is solved exactly once for the whole run,
    prefix-weight rescaling is a diagonal applied at assembly time, and
    order is monitored per batch from the singular values of the cache's
    {!Sample_cache.svd_operand}.  Stops when {!settled} (with
    [converge_tol] default 2%) or the points run out; with an explicit
    [order] and no [tol], leading convergence alone decides.
    [result.samples] reports how many points were actually used.
    [rebuild] (default [false]) switches to the reference from-scratch
    loop — a fresh cache per batch, re-solving every consumed shift,
    O(total^2) solves — kept as the benchmark baseline; its results are
    bitwise-identical to the incremental path's. *)

val reduce_adaptive_rrqr : ?rebuild:bool -> ?order:int -> ?tol:float -> ?batch:int ->
  ?converge_tol:float -> ?workers:int -> Dss.t -> Sampling.point array -> result
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
