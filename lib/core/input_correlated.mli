(** Input-correlated TBR (Algorithm 3).  When the port inputs are
    correlated, the effective Gramian solves
    [A X + X A^T + B K B^T = 0] with [K] the input correlation matrix.
    Instead of forming [K], the input sample matrix is SVD'd and each
    frequency sample is taken against an input direction drawn from the
    estimated input distribution, so the sampled Gramian converges to the
    K-weighted one and the model order tracks the {e correlated} — much
    smaller — controllable subspace.

    Both variants run through the shared {!Sample_cache} pipeline (a
    {!Sample_cache.Per_point} source for the random draws, a
    {!Sample_cache.Fixed_rhs} source for the deterministic directions):
    every shift is solved exactly once per run through one symbolic
    analysis, every run finishes through {!Pmtbr.of_cache} with the
    cache counters in its result, and {!reduce_adaptive} controls the
    Monte Carlo draw count on the fly. *)

open Pmtbr_la
open Pmtbr_lti

type result = {
  rom : Dss.t;
  basis : Mat.t;
  singular_values : float array;
  input_rank : int;  (** retained input directions *)
  samples : int;
  stats : Sample_cache.stats;
      (** cache counters: [solves = points] — one solve per draw (random
          variants) or per frequency point (deterministic), none repeated
          across adaptive batches *)
}

val reduce : ?order:int -> ?tol:float -> ?input_tol:float -> ?seed:int -> ?workers:int ->
  Dss.t -> inputs:Mat.t -> points:Sampling.point array -> draws:int -> result
(** Run Algorithm 3.  [inputs] is the [p x N] matrix of sampled input
    waveforms; [points] the frequency points to cycle through; [draws] the
    number of sample vectors (each pairing one frequency point with one
    random input direction).  [input_tol] truncates the input SVD (default
    [1e-6] relative); [seed] makes the direction draws reproducible. *)

val reduce_adaptive : ?order:int -> ?tol:float -> ?input_tol:float -> ?seed:int -> ?batch:int ->
  ?converge_tol:float -> ?workers:int -> Dss.t -> inputs:Mat.t ->
  points:Sampling.point array -> max_draws:int -> result
(** Adaptive draws-loop: consume up to [max_draws] random draws in batches
    of [batch] (default 8) through the cache, rescaling the held prefix at
    assembly so every batch estimates the same K-weighted Gramian, and
    stop when the leading singular values have converged to [converge_tol]
    relative change (default 2%), the tail is below [tol], and the sample
    block holds at least twice the model order in columns.
    [result.samples] reports the draws consumed.  Results are
    bitwise-independent of [batch] boundaries and worker count (the rng
    stream is consumed strictly in draw order). *)

val reduce_deterministic : ?order:int -> ?tol:float -> ?input_tol:float -> ?directions:int ->
  ?workers:int -> Dss.t -> inputs:Mat.t -> points:Sampling.point array -> result
(** Deterministic variant: use the leading input directions themselves,
    scaled by their singular values, at every frequency point.  Cheaper and
    reproducible; used for the large substrate experiments.  [directions]
    caps the retained input rank (0 = keep all above [input_tol]). *)
