(** Incremental cache of sample columns — the shared pipeline layer under
    every PMTBR variant (Sections V-C/V-D, VI).

    A cache is parameterised by the {e source} of its columns: plain
    controllability samples [(sE - A)^{-1} B], adjoint observability
    samples [(sE - A)^{-H} C^T], a fixed arbitrary right-hand side, or a
    right-hand side per point.  Whatever the source, the cache stores each
    consumed point's raw {e unweighted} realified columns exactly once and
    applies quadrature weights — including the adaptive prefix rescaling —
    as a per-column diagonal at assembly time, so extending an adaptive
    run by a batch costs only the new shifts' solves and rescaling an
    already-held prefix costs none.  One {!Pmtbr_lti.Dss.multi_shift}
    handle (symbolic sparse-LU analysis) is shared across all batches, and
    may be shared across caches (the two sides of a cross-Gramian run).

    A thin QR factorisation of the raw columns is grown on first use: with
    [ZW = Q R D] ([D] the diagonal of column weights), the singular values
    of the small {!small_factor} [R D] are those of the assembled [ZW], and
    [Q *] the left singular vectors of [R D] is its left singular basis.
    {!svd_operand} picks the smaller of [ZW] and [R D] for the SVD that
    finishes or monitors a run, so a cache wider than the state dimension
    never builds the QR at all.  {!cross_q} compresses two-cache products
    (the sampled cross-Gramian pencil) to the column dimension.

    Everything held is a pure function of the point sequence consumed so
    far: extending in one batch or many, with any worker count, yields
    bitwise-identical columns, factors and assemblies. *)

open Pmtbr_la
open Pmtbr_lti

type source =
  | Controllability  (** [(sE - A)^{-1} B] — Algorithms 1-2 *)
  | Observability  (** [(sE - A)^{-H} C^T] — cross-Gramian left side *)
  | Fixed_rhs of Mat.t  (** [(sE - A)^{-1} rhs] — deterministic Algorithm 3 *)
  | Per_point  (** [(sE - A)^{-1} rhs_k], one rhs per point via {!extend_rhs} *)

type t

type stats = {
  solves : int;  (** shifted solves performed over the cache lifetime *)
  points : int;  (** sample points held *)
  columns : int;  (** realified columns held *)
  batches : int;  (** [extend] calls that did work *)
  factor_s : float;  (** summed factorisation seconds across batches *)
  solve_s : float;  (** summed solve + realify seconds across batches *)
  batch_wall_s : float array;  (** wall seconds of each [extend], in order *)
}

val create :
  ?workers:int -> ?oversubscribe:bool -> ?ms:Dss.multi_shift -> ?source:source -> Dss.t -> t
(** Empty cache for the given sample [source] (default {!Controllability}).
    [workers] and [oversubscribe] configure the {!Shift_engine} pool used
    by every {!extend}.  [ms] supplies a pre-built multi-shift handle so
    several caches (e.g. the right/left sides of a cross-Gramian run)
    share one symbolic sparse-LU analysis; without it a handle is created
    lazily from the first point consumed.  Raises [Invalid_argument] if a
    {!Fixed_rhs} matrix does not have one row per state. *)

val extend : t -> Sampling.point array -> unit
(** Append the given {e new} points: solve each shift once (through the
    shared symbolic analysis, on the adjoint side for {!Observability}),
    and store its raw columns.  Points carry their
    original quadrature weights; prefix rescaling belongs to assembly
    ([~scale]), not here.  An empty array is a no-op.  Raises
    [Invalid_argument] on a {!Per_point} cache — use {!extend_rhs}. *)

val extend_rhs : t -> (Sampling.point * Mat.t) array -> unit
(** {!extend} for a {!Per_point} cache: each point arrives with its own
    right-hand side (the input-correlated random draws).  Raises
    [Invalid_argument] on a fixed-source cache or on a right-hand side
    without one row per state. *)

val points : t -> int
(** Number of sample points held. *)

val columns : t -> int
(** Number of realified columns held (two per complex point and one per
    real point, times the right-hand-side column count). *)

val stats : t -> stats
(** Observability counters; [stats.solves = stats.points] certifies that
    no shift was ever re-solved. *)

val merge_stats : stats -> stats -> stats
(** Pointwise sum of two caches' counters (batch wall times concatenated)
    — the combined record surfaced by two-sided variants (cross-Gramian).
    [solves = points] is preserved: each side counts its own points. *)

val assemble : t -> scale:float -> Mat.t
(** The weighted sample matrix [ZW] of every held column, with each
    point's columns scaled by [sqrt (weight *. scale)] — bitwise-identical
    to a one-shot {!Shift_engine.run} over the same tasks with weights
    multiplied by [scale].  Raises [Invalid_argument] on an empty cache. *)

val small_factor : t -> scale:float -> Mat.t
(** The upper-triangular [R D] ([columns x columns]) with
    [assemble ~scale = Q * small_factor ~scale]: its singular values are
    those of the assembled [ZW] (up to roundoff), at the column dimension
    instead of the state dimension.  Builds the thin QR of any columns it
    does not cover yet (under the cache's lock, so concurrent readers of a
    shared cache are safe); the factor only depends on the columns held,
    never on when it was built. *)

val apply_q : t -> Mat.t -> Mat.t
(** [apply_q t coeff] is [Q * coeff] for a [columns x k] coefficient
    matrix — used to lift singular vectors of {!small_factor} back to
    state-space columns.  Builds the thin QR on first use, as
    {!small_factor} does. *)

val cross_q : t -> t -> Mat.t
(** [cross_q a b] is the small Gram matrix [Q_a^T Q_b]
    ([columns a x columns b]) — with the two {!small_factor}s it
    compresses products such as the sampled cross-Gramian
    [Z^R (Z^L)^T] to the column dimension.  Raises [Invalid_argument] if
    the caches' state dimensions differ. *)

val svd_operand : t -> scale:float -> Mat.t
(** The matrix whose SVD finishes or monitors a run over this cache: the
    assembled [ZW] ({!assemble}) when the cache holds more columns than
    states, otherwise the [columns x columns] {!small_factor}.  Either way
    its singular values are those of [ZW]; only the smaller operand is
    ever formed.  Raises [Invalid_argument] on an empty cache. *)

val lift : t -> Mat.t -> Mat.t
(** [lift t u] maps left singular vectors of {!svd_operand} to
    state-space columns: [u] itself for a wide cache, {!apply_q} for a
    tall one. *)
