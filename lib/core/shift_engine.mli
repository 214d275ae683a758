(** Parallel multi-shift sampling engine.

    Runs the shifted-solve loop [z_k = (s_k E - A)^{-1} B] — the entire
    cost of PMTBR (paper eq. 8-11) — over an OCaml 5 domain pool with a
    chunked work queue, reusing one symbolic sparse-LU analysis across all
    shifts (see {!Pmtbr_sparse.Shifted.prepare}).

    {b Determinism contract}: each sample block is a pure function of the
    system and its task, and blocks are assembled in task order, so runs
    with any worker count produce bitwise-identical sample matrices (and
    hence identical singular values).  CI enforces this. *)

open Pmtbr_la
open Pmtbr_lti

type task = {
  point : Sampling.point;
  rhs : Mat.t;  (** right-hand side of the shifted solve *)
  hermitian : bool;  (** solve [(sE - A)^H x = rhs] instead (observability side) *)
}

type stats = {
  solves : int;  (** completed shifted solves *)
  workers : int;  (** pool size actually used *)
  factor_s : float;  (** summed per-worker factorisation seconds *)
  solve_s : float;  (** summed per-worker triangular-solve + realify seconds *)
  wall_s : float;  (** wall-clock of the whole run *)
  busy_s : float array;  (** per-worker busy seconds, length [workers] *)
}

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()]: the pool size used when
    [?workers] is omitted or [<= 0]. *)

val utilisation : stats -> float
(** Mean worker utilisation in [0, 1]: total busy time over
    [workers * wall].  A degenerate run — zero wall clock or no workers —
    reports [0.]. *)

val run :
  ?workers:int ->
  ?oversubscribe:bool ->
  ?chunk:int ->
  ?ms:Dss.multi_shift ->
  Dss.t ->
  task array ->
  Mat.t * stats
(** Solve every task and concatenate the realified blocks in task order.
    [workers = 1] runs inline in the calling domain (the serial path);
    [chunk] (default 1) is the number of consecutive tasks a worker claims
    per queue round-trip.  The first task's point is the template shift
    for the shared symbolic analysis; [ms] supplies a pre-built handle
    instead, so incremental callers ({!Sample_cache}) share one symbolic
    analysis across every batch of an adaptive run.  An exception raised
    by any task (e.g. [Sparse_lu.C.Singular]) is re-raised here,
    deterministically the one with the lowest task index.

    The pool is capped at {!default_workers} — on OCaml 5 every minor
    collection synchronises all domains, so running more domains than
    cores only adds scheduler round-trips.  [oversubscribe:true] lifts the
    cap (the determinism tests use it to exercise genuine multi-domain
    runs on any machine); results are bitwise-identical either way. *)

val is_effectively_real : Complex.t -> bool
(** Whether a sample point is treated as real (one column per input
    instead of a realified pair). *)

val realify_block : weight:float -> Complex.t array array -> is_real:bool -> Mat.t
(** Weighted real column block for one solved sample (step 5 of
    Algorithm 1). *)
