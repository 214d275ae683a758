(** Hierarchical domain-decomposed PMTBR: {!Partition.split} (or
    {!Partition.split_auto}) the netlist by nested dissection, run the
    ordinary sampling pipeline per subdomain (each interior gets its own
    [Dss.multi_shift] handle inside a {!Sample_cache} with the part's
    ports-plus-couplings [Fixed_rhs]), and recombine with the
    interface-preserving block basis blkdiag(V_1 .. V_K, I) — interface
    states are kept exactly at this stage, so with untruncated subdomain
    bases the result is an exact congruence transform of the full model,
    and with truncated bases port behavior matches flat reduction to the
    truncation tolerance.

    Recombination is two-phase: {!project_part} computes one part's
    congruence blocks (all the O(interior) work) inside that part's
    fan job, and the serial {!assemble} scatters the small dense
    blocks into the reduced pencil — an O(q^2) epilogue that never
    touches the mesh, so the recombination stage stays trivial even with
    one worker.

    {!compress_interface} optionally runs a second PMTBR pass over the
    assembled pencil's interface states so the reduced order stops
    paying |interface| verbatim per cut: couplings are contracted
    through the dominant interface subspace but never sketched, and the
    exact-interface model is the fallback when the tolerance keeps full
    rank.

    No step ever pays a global factorization: the largest sparse LU is a
    subdomain interior, which is what lets networks beyond the flat
    path's reach complete.

    {b Determinism.}  Subdomains fan out on {!Pmtbr_la.Par_kernel.fan}
    but each job runs its solves and dense kernels serially and computes
    a pure function of (partition, points, order/tol) — the recombined
    ROM is bitwise-identical for any [workers] setting, the contract
    Shift_engine established and CI enforces for this layer too.  The compression SVD
    inherits the tournament-Jacobi bitwise worker invariance. *)

open Pmtbr_la
open Pmtbr_lti

type sub = {
  basis : Mat.t;  (** interior projection basis V_k, orthonormal columns *)
  singular_values : float array;  (** subdomain sample singular values *)
  sub_order : int;  (** columns kept *)
  solves : int;  (** shifted solves this subdomain performed *)
}

type blocks = {
  eh : Mat.t;  (** V^T E V (qi x qi) *)
  ah : Mat.t;  (** V^T A V *)
  e_igr : Mat.t;  (** V^T E_ig (qi x interface) *)
  a_igr : Mat.t;  (** V^T A_ig *)
  e_gir : Mat.t;  (** E_gi V (interface x qi) *)
  a_gir : Mat.t;  (** A_gi V *)
  bh : Mat.t;  (** V^T B_interior (qi x p) *)
  ch : Mat.t;  (** C_interior V (p x qi) *)
}
(** One part's congruence-projected blocks — the parallel half of
    recombination. *)

type stats = {
  parts : int;
  depth : int;  (** dissection tree depth *)
  interface : int;  (** interface state count before compression *)
  interface_kept : int;  (** after compression (= [interface] without) *)
  states : int;  (** full-model state count *)
  order : int;  (** final ROM order = sum sub_orders + interface_kept *)
  sub_orders : int array;
  solves : int;  (** total shifted solves across subdomains *)
  sub_wall_s : float array;  (** per-subdomain wall seconds, partition order *)
  pool : Par_kernel.pool;  (** the subdomain fan; its wall is sampling + per-part blocks *)
  recombine_wall_s : float;  (** serial assembly wall *)
  compress_wall_s : float;  (** interface-compression wall (0 when off) *)
}

val sample_part : ?workers:int -> Partition.part -> Sampling.point array -> Sample_cache.t
(** Solve the part's sampling right-hand side at every point through a
    fresh subdomain cache (its own multi-shift handle; [workers] defaults
    to 1 — fan-out parallelism lives across subdomains, not inside one).
    The store keeps these caches warm across jobs, keyed by the part's
    sub-netlist hash. *)

val basis_of_part :
  ?order:int -> ?tol:float -> ?workers:int -> Partition.part -> Sample_cache.t ->
  samples:int -> unit -> sub
(** One subdomain's basis through {!Pmtbr.basis_of_cache} (the cache's
    {!Sample_cache.svd_operand} rule decides which SVD runs), without a
    projection: {!project_part} projects the part with it.
    [order]/[tol] bound each subdomain's kept columns (same semantics as
    {!Pmtbr_lti.Tbr.choose_order}).  The part and [samples] are not read; they
    keep the call shape of the other per-part stages. *)

val reduce_part : ?order:int -> ?tol:float -> Partition.part -> Sampling.point array -> sub
(** {!sample_part} then {!basis_of_part}; a part with an empty sampling
    right-hand side (floating fragment) yields an empty basis. *)

val project_part : Partition.t -> int -> Mat.t -> blocks
(** Congruence blocks of part [i] under basis [v]: the projected
    diagonal blocks, the couplings contracted with [v] on the interior
    side (interface side exact), and the restricted port maps.  Pure in
    (partition, basis) — safe to run inside any fan job. *)

val assemble : Partition.t -> blocks array -> Dss.t
(** Scatter per-part blocks plus the verbatim interface block into the
    dense reduced pencil for blkdiag(V_1..V_K, I_interface).  O(q^2);
    raises [Invalid_argument] unless given one block set per part. *)

val recombine : ?workers:int -> Partition.t -> Mat.t array -> Dss.t
(** {!project_part} for every part (one {!Pmtbr_la.Par_kernel.fan} job
    each; [workers] defaults to 1) then {!assemble}.  Bitwise
    worker-invariant.  Raises [Invalid_argument] unless given one basis
    per part. *)

val compress_interface :
  ?workers:int -> tol:float -> Partition.t -> Dss.t -> Sampling.point array -> Dss.t * int
(** Second-pass PMTBR over the interface states of an assembled
    exact-interface model: sample the interface rows of
    X(s) = (sE - A)^{-1} B at the quadrature points (sqrt-weight
    realified, like the flat sampler), SVD, keep the
    {!Pmtbr_lti.Tbr.choose_order}[ ~tol] dominant left vectors W, and project by
    the congruence blkdiag(I, W).  Couplings contract through W — the
    interior side stays exact and nothing is sketched.  Full rank (or an
    empty interface / point set) returns the model unchanged — the exact
    fallback.  Returns (model, interface states kept). *)

val reduce_with_columns :
  ?order:int -> ?tol:float -> ?interface_tol:float -> ?workers:int ->
  columns:(int -> Partition.part -> Sample_cache.t) -> Partition.t -> Sampling.point array ->
  Dss.t * sub array * stats
(** The one hierarchical reduction.  Fan one job per subdomain on
    {!Pmtbr_la.Par_kernel.fan} ([workers] follows its
    {!Pmtbr_la.Par_kernel.pool_size}): [columns i part] supplies part
    [i]'s sample cache (extended with [points]), {!basis_of_part} and
    {!project_part} run on it; then {!assemble}, and
    {!compress_interface} when [interface_tol] is given.  A part whose
    sampling right-hand side is empty gets an empty basis and is never
    handed to [columns].  [columns] runs on the fan's domains, the
    calling one included, so it must be domain-safe.  Returns the model,
    each part's {!sub} (basis and singular values) in partition order,
    and the stats.  A subdomain failure (including one raised by
    [columns]) re-raises the lowest-index exception.  Bitwise
    worker-invariant whenever [columns] returns caches holding the same
    columns. *)

val reduce_partitioned :
  ?order:int -> ?tol:float -> ?interface_tol:float -> ?workers:int ->
  Partition.t -> Sampling.point array -> Dss.t * stats
(** {!reduce_with_columns} with every part sampled afresh by
    {!sample_part}.  Bitwise worker-invariant. *)
