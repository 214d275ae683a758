(** Passivity-preserving balanced truncation for reciprocal RC/RLCk
    descriptor systems — the one-Gramian symmetric scheme (Tanji,
    arXiv 1811.04630).

    A current-driven MNA system satisfies [J E J = E], [J A J = A]{^ T},
    [J B = B] for the signature [J = diag(I_nodes, -I_ind)], which makes
    the observability Gramian the J-reflection of the controllability
    one: [Y = J Xc J].  One low-rank Lyapunov solve therefore delivers
    both factors ([Zo = J Zc]), {b halving the shifted-solve columns}
    versus the two-sided {!Tbr_lr} run — compare [col_solves], the honest
    unit (the Ritz solves for shift selection are shared overhead both
    methods pay).  Balancing reduces to a symmetric eigendecomposition of
    [Zc]{^ T}[ (J E) Zc] (no SVD), and for RC systems the projection is a
    pure congruence, so the reduced model is {b provably passive} and
    {!synthesize} can realise it back into an R/C netlist.

    Determinism: the same worker-invariance contract as {!Tbr_lr} — the
    ADI iterations are serial and the parallel kernels are bitwise
    worker-invariant. *)

open Pmtbr_la

type stats = {
  gramian : Lr_lyap.stats;  (** the single Gramian solve *)
  shifts : Complex.t array;  (** ADI shifts used *)
  symbolic : int;  (** symbolic analyses (1 by contract; 0 when [?ms] reused) *)
  refactorizations : int;  (** numeric refactorisations, one per distinct shift *)
  solves : int;  (** shifted-solve calls through the shared handle *)
  col_solves : int;
      (** right-hand-side columns across those solves — roughly half of
          the {!Tbr_lr} figure on the same system *)
  wall_s : float;
}

type t = {
  rom : Dss.t;  (** reduced model *)
  hsv : float array;  (** singular values [|l_i|] of the Hankel core, descending *)
  order : int;  (** reduced order actually used *)
  stats : stats;  (** solver and handle counters of the run *)
}

val reduce :
  ?order:int ->
  ?tol:float ->
  ?shifts:Complex.t array ->
  ?num_shifts:int ->
  ?adi_tol:float ->
  ?max_steps:int ->
  ?stop:Lr_lyap.stop ->
  ?inductors:int ->
  ?ms:Dss.multi_shift ->
  ?workers:int ->
  Dss.t ->
  t
(** One-Gramian balanced truncation.  [inductors] (default [0]) is the
    number of trailing inductor-current states (the
    {!Pmtbr_circuit.Netlist.inductor_count} of the stamped netlist);
    [0] is the RC case.  [order] and [tol] (the relative tail) choose
    the order through {!Tbr.truncation_order}, as in {!Tbr.reduce}: an
    explicit [order] given with [tol] is capped at the order [tol] alone
    picks.  [?ms] reuses an already prepared multi-shift handle (the
    serve layer keeps one per cached network).
    @raise Invalid_argument if [C <> B]{^ T} (the system is not
    reciprocal), if the Hankel core comes out non-symmetric (wrong
    [inductors] or non-symmetric [E]), or if the Gramian factor is
    empty. *)

val synthesize : ?drop_tol:float -> ?workers:int -> t -> Pmtbr_circuit.Spice_ir.t
(** Realise the reduced model as an R/C netlist through
    {!Pmtbr_circuit.Synth.realize}.  Succeeds for RC-structured
    reductions ([inductors = 0]); RLCk reductions keep inductor states
    and are not synthesisable as R/C nets.
    @raise Pmtbr_circuit.Synth.Unrealizable otherwise. *)

val positive_real_residual : Dss.t -> Complex.t array -> float
(** Worst passivity violation over the sample points: the most negative
    eigenvalue of the hermitian part [(H(s) + H(s)]{^ H}[)/2], clamped at
    zero — [0.] means the response is positive-real on every sampled
    point.  Points typically come from
    {!Pmtbr_core.Sampling.points} on the band of interest. *)
