(** Factorisation of the shifted pencil [(sE - A)] for complex [s],
    assembled from real triplet accumulators.  This is the inner kernel of
    PMTBR: one complex sparse factorisation per frequency sample. *)

type pencil
(** The pair (E, A) with an agreed square dimension. *)

val pencil : e:Triplet.t -> a:Triplet.t -> pencil
(** Bundle the two stamped matrices; the pencil dimension is the largest of
    their dimensions. *)

type factor = Sparse_lu.C.factor
(** A complex sparse LU of [(sE - A)] at one shift. *)

val factorize : ?ordering:Ordering.scheme -> pencil -> Complex.t -> factor
(** [factorize p s] factors [(sE - A)] with the given fill-reducing
    ordering (default {!Ordering.Lower_fill}, the rule of {!prepare}). *)


type multi
(** A multi-shift handle: the union nonzero pattern of [(sE - A)] with
    separate E/A coefficient planes, the fill-reducing ordering, and a
    template factorisation — everything whose cost is independent of the
    particular shift, paid once per system. *)

val prepare : ?ordering:Ordering.scheme -> pencil -> template:Complex.t -> multi
(** [prepare p ~template] assembles the shared pattern, computes the
    ordering (default {!Ordering.Lower_fill}, a pure function of the
    pattern), and factors [(template*E - A)] as the structural template
    for all later shifts.
    @raise Sparse_lu.C.Singular if the pencil is singular at [template]. *)

val ordering : multi -> Ordering.pick option
(** Which order the default rule picked, with both fill counts; [None]
    when {!prepare} was given an explicit scheme. *)

val refactor : multi -> Complex.t -> factor
(** [refactor m s] factors [(sE - A)] by numeric-only refactorisation
    against the template — per-shift cost proportional to the arithmetic,
    with no symbolic analysis.  Falls back to a fresh pivoting
    factorisation when a reused pivot degrades past [1e-10] relative to
    its column; raises [Sparse_lu.C.Singular] only when the shifted pencil
    is genuinely singular. *)

type zfactor
(** An unboxed complex factor: the same [P A Q = L U] data as {!factor}
    but with values held in parallel re/im float arrays instead of boxed
    [Complex.t] records.  This is the production representation of the
    multi-shift sweep — the numeric replay and the triangular solves run
    allocation-free on flat float arrays. *)

val refactor_z : multi -> Complex.t -> zfactor
(** Like {!refactor} but producing the unboxed factor via a float-only
    replay of the template elimination (the complex matrix is never
    materialised).  Same stale-pivot fallback semantics as {!refactor}. *)

val zsolve_dense : zfactor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [zsolve_dense f b] solves [(sE - A) X = B] for a dense real [B] on the
    unboxed factor; one complex column per column of [B]. *)

val zsolve_hermitian_dense : zfactor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [zsolve_hermitian_dense f b] solves [(sE - A)^H X = B] on the unboxed
    factor. *)

val solve_dense : factor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [solve_dense f b] solves [(sE - A) X = B] for a dense real [B]; one
    complex column per column of [B]. *)

val solve_hermitian_dense : factor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [solve_hermitian_dense f b] solves [(sE - A)^H X = B], reusing the same
    factorisation; used for the observability samples of the cross-Gramian
    method. *)
