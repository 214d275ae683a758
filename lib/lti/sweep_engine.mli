(** Two-tier parallel frequency-sweep engine.

    Every accuracy number in the repo flows through a sweep — evaluating
    [H(s) = C (sE - A)^{-1} B] over a frequency grid — so this is the
    inference path of the codebase.  A sweep {!prepare}s a plan once per
    system and then evaluates grid points through it:

    - {b Sparse full models} keep one {!Pmtbr_sparse.Shifted} pencil with
      the symbolic analysis (pattern assembly, fill-reducing ordering,
      elimination structure) done once; each grid point pays only a
      numeric refactorisation replay, exactly as the sampling stage does
      in [Shift_engine].  [C * z] is folded through {!Pmtbr_la.Par_kernel}
      on a realified column block instead of the boxed [Mat.get] inner
      loop of the naive [Freq.eval].

    - {b Dense reduced models} are reduced once to Hessenberg-triangular
      form [Q^T (sE - A) Z = s T - H] by real orthogonal transforms; each
      grid point then costs one O(q^2) Hessenberg elimination and back
      substitution instead of an O(q^3) dense LU.

    Grid points fan out on {!Pmtbr_la.Par_kernel.fan}, one job per
    point, under the same bitwise worker-invariance contract as
    [Shift_engine] and [Par_kernel]: each response is a pure function of
    (plan, s) — never of the worker count or scheduling — and results
    come back in grid order.  CI enforces serial == parallel bitwise. *)

open Pmtbr_la

type t
(** An evaluation plan: the reusable per-system state (shared pencil
    handle, or Hessenberg-triangular factors).  Immutable after
    {!prepare} — safe to share across domains and sweeps. *)

type tier = Replay | Hessenberg

type stats = {
  points : int;  (** grid points evaluated *)
  factor_s : float;  (** summed per-point factorisation time *)
  solve_s : float;  (** summed solve + output-fold time *)
  pool : Par_kernel.pool;  (** the fan that evaluated the points *)
}

val prepare : ?template:Complex.t -> Dss.t -> t
(** Build the plan.  For sparse systems [template] (default [j1]) picks
    the shift whose factorisation serves as the structural template for
    the replays; for dense systems it is ignored and the one-time
    Hessenberg-triangular reduction runs instead. *)

val tier : t -> tier
(** Which tier {!prepare} chose ([Replay] for sparse systems,
    [Hessenberg] for dense ones). *)

val eval : t -> Complex.t -> Cmat.t
(** [eval plan s] is [H(s)] through the plan (outputs x inputs).  A
    serial map of [eval] over the grid is the bitwise reference for
    {!sweep} at any worker count. *)

val eval_jw : t -> float -> Cmat.t
(** [eval_jw plan omega] is [eval plan (j omega)]. *)

val sweep : ?workers:int -> t -> float array -> Cmat.t array * stats
(** Responses over a grid of frequencies (rad/s), evaluated in parallel,
    with the fan's timing.  [workers] follows
    {!Pmtbr_la.Par_kernel.pool_size}.  The responses are
    bitwise-identical to [Array.map (eval_jw plan) omegas] for every
    worker count. *)

val fold : ?workers:int -> t -> float array -> init:'a -> f:('a -> int -> Cmat.t -> 'a) -> 'a
(** Streaming sweep: evaluates the grid in bounded windows (points still
    fan out across the pool inside each window) and folds [f acc k h_k]
    serially in grid order, so the full [Cmat.t array] is never
    materialised.  The fold order — and therefore the result — is
    worker-invariant. *)

val iteri : ?workers:int -> t -> float array -> f:(int -> Cmat.t -> unit) -> unit
(** {!fold} specialised to side effects. *)
