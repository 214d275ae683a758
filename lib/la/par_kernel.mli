(** Domain-parallel, cache-blocked dense kernels for the reduction stage.

    PRs 1-3 parallelised the shifted-solve side of PMTBR over an OCaml 5
    domain pool; this layer does the same for the dense reduction stage
    (GEMM/gram/mv panels, blocked Householder QR, round-robin one-sided
    Jacobi SVD) so the SVD/QR of the tall-skinny sample factors no longer
    caps the end-to-end speedup.

    {b Determinism contract} (the same one {!Pmtbr_core.Shift_engine}
    advertises): every kernel uses a fixed tile/panel/round decomposition
    that depends only on the operand shapes — never on the worker count or
    on scheduling — and each output element is accumulated in a fixed
    order by exactly one task.  Serial and parallel runs therefore produce
    bitwise-identical results for any [workers], which CI enforces.

    Moreover [mul], [gram] and [mv] are {!Mat}'s own loops run over row
    panels ({!Mat.mul_over} and friends), so they are bitwise-equal to
    [Mat.mul], [Mat.gram] and [Mat.mv], and the blocked QR replays the
    exact reflector arithmetic of the classic unblocked Householder
    sweep.

    Kernels fall back to the plain serial loop when the operand is too
    small to amortise a domain spawn; the cutover depends only on the
    operand shape, so it cannot break worker-invariance.

    Every parallel loop of the library runs on one indexed {!fan}, with
    one worker rule ({!pool_size}): the multi-shift solves, the
    verification sweeps, the hierarchy's subdomains and the kernels
    below. *)

val default_workers : unit -> int
(** The pool size used when no explicit count is given: the value
    installed by {!set_default_workers}, else
    [Domain.recommended_domain_count ()]. *)

val set_default_workers : int option -> unit
(** Install a process-wide default worker count ([None], or a count
    below 1, restores the hardware default).  The CLI [--workers] flag
    routes through here so one flag covers both the solve and reduction
    stages.  Results are bitwise-identical for any setting. *)

val cap_to_host : int -> int
(** [cap_to_host w] clamps a user's worker count to
    [\[1, Domain.recommended_domain_count ()\]] — the hardware cap,
    applied where a count enters the program (the CLI's [--workers] and
    [serve --job-workers]).  The library itself honours any explicit
    count. *)

(** {1 The fan} *)

type pool = {
  workers : int;  (** domains that ran the jobs, the calling one included *)
  wall_s : float;  (** wall clock of the whole fan *)
  busy_s : float array;  (** per-worker busy seconds, length [workers] *)
}

val pool_size : workers:int -> int -> int
(** [pool_size ~workers n] is the one worker rule: an explicit
    [workers >= 1] is honoured, any other value means
    {!default_workers}; a pool never has more workers than the [n]
    jobs. *)

val utilisation : pool -> float
(** Mean busy fraction in [\[0, 1\]]: total busy time over
    [workers * wall].  A degenerate pool — zero wall clock or no
    workers — reports [0.]. *)

val fan : workers:int -> int -> (int -> 'a) -> 'a array * pool
(** [fan ~workers n job] runs [job 0 .. job (n-1)] on
    [pool_size ~workers n] domains and returns the results in index
    order with the pool's record.  The calling domain is worker 0; with
    one worker the fan is an inline loop with no spawn.  Jobs are
    claimed one at a time from a shared counter, so slow jobs do not
    stall a static partition.  If any job raises, the fan re-raises the
    exception of the lowest failing index, whatever the schedule.  A
    pool larger than [Domain.recommended_domain_count ()] warns once per
    process on [stderr].  Jobs that call the kernels below pass
    [~workers:1], so fans do not nest. *)

val parallel_ranges : ?workers:int -> work:int -> int -> (int -> int -> unit) -> unit
(** [parallel_ranges ~work n f] partitions [0..n-1] into
    [pool_size ~workers n] contiguous ranges and runs [f lo hi] on each
    through {!fan}, when the estimated scalar-op count [work] is large
    enough to pay for domain spawns (else [f 0 n] inline).  [f] must
    write only to range-private slots.  The partition depends only on
    [n] and the resolved worker count; correctness (and bitwise output,
    provided [f]'s writes are disjoint and per-index deterministic) does
    not. *)

val dot : float array -> float array -> float
(** Cache-blocked dot product: per-block partial sums in index order,
    combined in block order — a pure function of the operand values and
    length.  Vectors that fit one block (length <= 4096) reduce to the
    plain sequential dot, bit for bit. *)

val mul : ?workers:int -> Mat.t -> Mat.t -> Mat.t
(** {!Mat.mul}'s ikj loop, parallel over row panels.  Bitwise-equal to
    {!Mat.mul} for any worker count (each output element accumulates over
    [k] in ascending order with the same zero-skip). *)

val gram : ?workers:int -> Mat.t -> Mat.t
(** [A^T A] without forming the transpose: {!Mat.gram}'s loop, parallel
    over panels of output rows.  Bitwise-equal to {!Mat.gram}. *)

val mv : ?workers:int -> Mat.t -> float array -> float array
(** Matrix-vector product, parallel over row panels.  Bitwise-equal to
    {!Mat.mv}. *)

(** {1 Blocked Householder QR} *)

type qr = {
  wf : Mat.t;
      (** packed factor: R on and above the diagonal, normalised reflector
          tails below it *)
  betas : float array;  (** reflector scalings, length [min m n] *)
}

val qr_factor : ?workers:int -> Mat.t -> qr
(** Panel-blocked Householder factorisation: reflectors are built serially
    within a panel, then applied to the trailing columns in parallel.
    Each trailing column receives every reflector in index order with the
    classic unblocked arithmetic, so the packed factor is bitwise-equal to
    the unblocked serial sweep for any worker count. *)

val qr_r : qr -> Mat.t
(** The [n x n] upper-triangular factor. *)

val qr_thin_q : ?workers:int -> ?cols:int -> qr -> Mat.t
(** Thin orthonormal factor: the first [cols] (default [min m n]) columns
    of Q, formed by applying the packed reflectors to columns of the
    identity — parallel over columns, each column bitwise-equal to the
    serial backward accumulation. *)

val qr_apply_q : ?workers:int -> qr -> Mat.t -> Mat.t
(** [qr_apply_q f x] is [Q * x] for [x] with [m] rows, or [Q_thin * x]
    (zero-padded implicitly) for [x] with [min m n] rows; parallel over
    columns of [x].  Cheaper than materialising the thin Q when [x] is
    consumed once. *)

val qr_apply_qt : ?workers:int -> qr -> Mat.t -> Mat.t
(** [qr_apply_qt f x] is [Q^T * x] for [x] with [m] rows ([m x p]
    result; rows [0 .. min m n - 1] are [Q_thin^T x]); parallel over
    columns of [x]. *)

val qr_apply_qt_vec : qr -> float array -> float array
(** {!qr_apply_qt} on a single vector. *)

(** {1 Round-robin one-sided Jacobi} *)

val jacobi_rounds :
  ?workers:int ->
  ?v:float array array ->
  threshold:float ->
  max_sweeps:int ->
  rows:int ->
  float array array ->
  unit
(** [jacobi_rounds ~threshold ~max_sweeps ~rows w] runs one-sided Jacobi
    (Hestenes) on the columns [w] (each of length [rows]), optionally
    accumulating right-hand rotations into the columns [v], using
    the fixed round-robin (tournament) rotation schedule: each round
    rotates disjoint column pairs, so the pairs of a round are processed
    in parallel with bitwise worker-invariance; rounds and sweeps are
    sequential.  Stops when a full sweep applies no rotation (every pair
    orthogonal to [threshold] relative accuracy) or after [max_sweeps]
    sweeps.  The rotation arithmetic is exactly that of the serial cyclic
    sweep of the test oracles' reference SVD; only the pair order differs. *)
