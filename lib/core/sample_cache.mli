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
    (the sampled cross-Gramian pencil) to the column dimension, and
    {!pencil} holds a tall cache's system projected onto span(Q), so a
    finish projects a [c x c] model instead of the [n]-state one, and
    {!left_svd} holds the finish's decomposition of {!svd_operand}, so a
    re-finish at another order or tolerance runs no SVD.

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
  svds : int;
      (** finish decompositions ({!left_svd}) run over the cache lifetime:
          one per column set and scale, so a re-finish at any [order] or
          [tol] leaves it unchanged *)
  points : int;  (** sample points held *)
  columns : int;  (** realified columns held *)
  batches : int;  (** [extend] calls that did work *)
  factor_s : float;  (** summed factorisation seconds across batches *)
  solve_s : float;  (** summed solve + realify seconds across batches *)
  batch_wall_s : float array;  (** wall seconds of each [extend], in order *)
  ordering : Pmtbr_sparse.Ordering.pick option;
      (** the handle's ordering pick ([None] before a solve, or if dense) *)
}

val create : ?workers:int -> ?ms:Dss.multi_shift -> ?source:source -> Dss.t -> t
(** Empty cache for the given sample [source] (default {!Controllability}).
    [workers] sizes the {!Shift_engine} fan of every {!extend}.  [ms]
    supplies a pre-built multi-shift handle so several caches (e.g. the
    right/left sides of a cross-Gramian run) share one symbolic sparse-LU
    analysis; without it a handle is created lazily from the first point
    consumed.  Raises [Invalid_argument] if a {!Fixed_rhs} matrix does not
    have one row per state. *)

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

val system : t -> Dss.t
(** The system the cache samples (the one given to {!create}). *)

val points : t -> int
(** Number of sample points held. *)

val columns : t -> int
(** Number of realified columns held (two per complex point and one per
    real point, times the right-hand-side column count). *)

val stats : t -> stats
(** Observability counters; [stats.solves = stats.points] certifies that
    no shift was ever re-solved. *)

val merge_stats : stats -> stats -> stats
(** Pointwise sum of two caches' counters (batch wall times concatenated,
    the first cache's ordering pick)
    — the combined record surfaced by two-sided variants (cross-Gramian).
    [solves = points] is preserved: each side counts its own points. *)

val assemble : t -> scale:float -> Mat.t
(** The weighted sample matrix [ZW] of every held column, with each
    point's columns scaled by [sqrt (weight *. scale)] — bitwise-identical
    to a one-shot weighted assembly of the same points with weights
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

val left_svd : ?workers:int -> t -> scale:float -> Mat.t * float array
(** [Svd.left (svd_operand t ~scale)], bit for bit, run at most once per
    column set and scale: the cache keeps the decomposition, stamped with
    the column count and [scale] it covers, and rebuilds it whole when
    either differs (a grown cache never reuses an old one).  Built under
    the cache's lock, so two domains finishing one shared cache run one
    SVD; [workers] sizes that SVD's pool and, the result being
    bitwise-identical for any value, never changes the bits a later
    caller reads.  The left vectors and singular values are shared, not
    copied: callers read them and never write into them.  Raises
    [Invalid_argument] on an empty cache. *)

val wide : t -> bool
(** Whether the cache holds more columns than states: {!svd_operand} is
    then the assembled [ZW], and no QR or {!pencil} is ever built. *)

val lift : t -> Mat.t -> Mat.t
(** [lift t u] maps left singular vectors of {!svd_operand} to
    state-space columns: [u] itself for a wide cache, {!apply_q} for a
    tall one. *)

val pencil : t -> Dss.t
(** The system in the coordinates of {!svd_operand}'s left vectors, so
    that [Dss.project_congruence (pencil t) u] is the Galerkin model on
    [lift t u].  For a tall cache: the dense [c x c] pencil
    [(Q^T E Q, Q^T A Q, Q^T B, C Q)] of {!system}'s own [B] and [C],
    whatever the sample source — built on first use under the cache's
    lock, once per column set (a grown cache rebuilds it whole, so it
    stays a pure function of the columns held; bitwise-identical for any
    worker count).  For a wide cache: {!system} itself.  Raises
    [Invalid_argument] on an empty cache. *)
