(** Low-rank square-root balanced truncation: exact TBR at PMTBR scale.

    The dense baseline {!Tbr} is O(n^3) in the dense Gramian solves; this
    backend computes both Gramians in low-rank factored form with
    {!Pmtbr_la.Lr_lyap}'s LR-ADI and balances from the factors: the SVD core is
    [Zo^T E Zc] — a (cols x cols) matrix — so the reduction stage costs
    O(n k^2) for factor rank k.

    All shifted solves of both Gramian sides go through {b one} prepared
    {!Dss.multi_shift} handle: the symbolic analysis of the pencil is paid
    once, each distinct ADI shift triggers exactly one numeric
    refactorisation, and the observability side reuses the controllability
    factors through hermitian solves (its shifts are conjugated so the two
    sides land on identical factorisation keys).  {!stats} exposes the
    counters that make this contract testable.

    Determinism: the ADI iterations are serial; the only
    worker-parallel pieces are the {!Pmtbr_la.Par_kernel} products and the
    {!Pmtbr_la.Svd} core, both bitwise worker-invariant — so the reduced
    model is identical for every [?workers] value (PR-4 contract). *)

open Pmtbr_la

type stats = {
  ctrl : Lr_lyap.stats;  (** controllability-side solver statistics *)
  obs : Lr_lyap.stats;  (** observability-side solver statistics *)
  shifts : Complex.t array;  (** ADI shifts used *)
  symbolic : int;  (** symbolic analyses of the sparse pencil (1 by contract) *)
  refactorizations : int;
      (** numeric refactorisations — one per distinct shift by contract *)
  solves : int;  (** shifted solves through the shared handle, both sides *)
  col_solves : int;
      (** total right-hand-side columns across those solves — the honest
          cost unit when comparing against the one-Gramian symmetric
          path ({!Tbr_passive}), since the Ritz-value solves for shift
          selection cost both methods the same *)
  wall_s : float;  (** wall-clock of the whole reduction *)
}

type t = {
  rom : Dss.t;  (** reduced model (same descriptor flavour as the input) *)
  hsv : float array;  (** approximate Hankel singular values, descending *)
  order : int;  (** reduced order actually used *)
  stats : stats;  (** solver and handle counters of the run *)
}

val controllability_factor :
  ?shifts:Complex.t array ->
  ?num_shifts:int ->
  ?tol:float ->
  ?max_steps:int ->
  ?stop:Lr_lyap.stop ->
  Dss.t ->
  Mat.t * Lr_lyap.stats
(** Low-rank factor [Zc] with [Zc Zc^T ~= X] of the controllability
    Gramian [A X E^T + E X A^T + B B^T = 0].  [tol] (default [1e-10]) is
    the solver's relative residual tolerance; [stop] switches to the
    band-limited criterion. *)

val hankel_singular_values :
  ?shifts:Complex.t array ->
  ?num_shifts:int ->
  ?adi_tol:float ->
  ?max_steps:int ->
  ?stop:Lr_lyap.stop ->
  ?workers:int ->
  Dss.t ->
  float array
(** Approximate Hankel singular values: [svd (Zo^T E Zc)], computed with
    the worker-parallel product and SVD kernels.  Agrees with the dense
    {!Tbr} values to the Gramian solver tolerance. *)

val reduce :
  ?order:int ->
  ?tol:float ->
  ?shifts:Complex.t array ->
  ?num_shifts:int ->
  ?adi_tol:float ->
  ?max_steps:int ->
  ?stop:Lr_lyap.stop ->
  ?workers:int ->
  Dss.t ->
  t
(** Square-root balanced truncation from the low-rank factors.  [order]
    and [tol] (the tail relative to the largest approximate Hankel value)
    choose the order through {!Tbr.truncation_order}, as in
    {!Tbr.reduce}.  [adi_tol] is the Gramian solver tolerance (default
    [1e-10]).
    @raise Invalid_argument if a Gramian factor comes back empty
    (unstable/empty system). *)
