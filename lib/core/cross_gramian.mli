(** Sampled cross-Gramian reduction (paper Section V-D).  Controllability
    samples [Z^R = (s_k E - A)^{-1} B] and observability samples
    [Z^L = (s_k E - A)^{-H} C^T] are combined through a compressed
    eigenproblem whose dominant eigenvectors approximate the dominant
    cross-Gramian eigenspace.

    {!of_samples} is the dense kernel over pre-built sample blocks: a
    state-dimension QR of the joint block [\[zr zl\] = Q \[R^R R^L\]] and
    the pencil [R^R (R^L)^T y = lambda y] at the joint column dimension.

    {!reduce} and {!reduce_adaptive} run both sides through
    {!Sample_cache}s sharing one multi-shift handle (the adjoint solves
    reuse the same symbolic sparse-LU analysis) and solve the pencil
    [S_R S_L^T (Q_L^T Q_R) y = lambda y] built from the two small thin-QR
    factors, truncated to the right side's numerical rank — no
    state-dimension QR or dense [n x cols] product, and the Schur solve
    runs at the rank dimension.  [stats.solves = stats.points] certifies
    each shift was solved exactly once per side. *)

open Pmtbr_la
open Pmtbr_lti

type result = {
  rom : Dss.t;
  basis : Mat.t;
  eigenvalues : Complex.t array;  (** of the compressed pencil, |.| descending *)
  samples : int;
  stats : Sample_cache.stats;
      (** the two sides' merged counters ({!Sample_cache.merge_stats}):
          [solves = points] certifies no shift was re-solved on either
          side; {!of_samples} records its columns but no solves *)
}

val of_samples :
  ?order:int -> ?tol:float -> Dss.t -> zr:Mat.t -> zl:Mat.t -> samples:int -> result
(** The dense pipeline from pre-built sample blocks: a state-dimension QR
    of [\[zr zl\]] — the reference {e bench/variants_bench.ml} gates the
    compressed pencil against.  [tol] (default [1e-8]) drops eigenvalues
    relative to the largest magnitude when [order] is not given. *)

val reduce : ?order:int -> ?tol:float -> ?workers:int -> Dss.t -> Sampling.point array -> result
(** Reduce onto the dominant cross-Gramian eigenspace: both sides sampled
    once into two {!Sample_cache}s and the compressed pencil solved at the
    single-side column dimension ({!of_caches}); [tol] as in
    {!of_samples}. *)

val make_caches :
  ?workers:int -> Dss.t -> Sampling.point -> Sample_cache.t * Sample_cache.t
(** [(right, left)] caches — a {!Sample_cache.Controllability} and a
    {!Sample_cache.Observability} source — sharing one multi-shift handle
    created from the template point, so the adjoint solves reuse the same
    symbolic analysis.  For callers (the bench, adaptive drivers) that
    extend the sides themselves before {!of_caches}. *)

val of_caches :
  ?order:int -> ?tol:float -> ?workers:int -> Dss.t -> right:Sample_cache.t ->
  left:Sample_cache.t -> scale:float -> samples:int -> result
(** The compressed-pencil pipeline from two pre-extended caches (a
    {!Sample_cache.Controllability} right side and a
    {!Sample_cache.Observability} left side over the same points); exposed
    for the bench and for callers managing their own caches.  Raises
    [Invalid_argument] when the side column counts differ (inputs [<>]
    outputs). *)

val reduce_adaptive :
  ?order:int -> ?tol:float -> ?batch:int -> ?converge_tol:float -> ?workers:int -> Dss.t ->
  Sampling.point array -> result
(** Adaptive cross-Gramian: consume the points in bit-reversed batches of
    [batch] (default 8) through both sides' caches — each shift solved
    once per side for the whole run — and stop when the leading pencil
    eigenvalue magnitudes have converged to [converge_tol] relative change
    (default 2%) and the sample block holds at least twice the model order
    in columns per side.  [result.samples] reports the points consumed. *)
