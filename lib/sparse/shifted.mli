(** Factorisation of the shifted pencil [(sE - A)] for complex [s],
    assembled from real triplet accumulators.  This is the inner kernel of
    PMTBR: one complex sparse factorisation per frequency sample. *)

type pencil
(** The pair (E, A) with an agreed square dimension. *)

val pencil : e:Triplet.t -> a:Triplet.t -> pencil
(** Bundle the two stamped matrices; the pencil dimension is the largest of
    their dimensions. *)

type factor
(** A complex sparse LU of [(sE - A)] at one shift, its values held in
    parallel re/im float arrays, so the factorisation, the per-shift
    replay and the solves run without boxing a complex. *)

val factorize : ?ordering:Ordering.scheme -> pencil -> Complex.t -> factor
(** [factorize p s] assembles the union pattern's coefficient planes,
    orders them (default {!Ordering.Lower_fill}, the rule of {!prepare})
    and factors [(sE - A)] with partial pivoting.
    @raise Sparse_lu.Singular if the shifted pencil is singular. *)

val nnz : factor -> int
(** Nonzeros in L + U (including the unit diagonal), a fill measure. *)

type multi
(** A multi-shift handle: the union nonzero pattern of [(sE - A)] with
    separate E/A coefficient planes, the fill-reducing ordering, and a
    template factorisation — everything whose cost is independent of the
    particular shift, paid once per system. *)

val prepare : ?ordering:Ordering.scheme -> pencil -> template:Complex.t -> multi
(** [prepare p ~template] assembles the shared pattern, computes the
    ordering (default {!Ordering.Lower_fill}, a pure function of the
    pattern), and factors [(template*E - A)] as the structural template
    for all later shifts: they replay its pivots and structure.
    @raise Sparse_lu.Singular if the pencil is singular at [template]. *)

val ordering : multi -> Ordering.pick option
(** Which order the default rule picked, with both fill counts; [None]
    when {!prepare} was given an explicit scheme. *)

val refactor : multi -> Complex.t -> factor
(** [refactor m s] factors [(sE - A)] by numeric-only replay of the
    template's elimination — per-shift cost proportional to the
    arithmetic, with no symbolic analysis.  Falls back to a fresh
    pivoting factorisation in the handle's order when a reused pivot
    degrades past [1e-10] relative to its column; raises
    [Sparse_lu.Singular] only when the shifted pencil is genuinely
    singular. *)

val solve_dense : factor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [solve_dense f b] solves [(sE - A) X = B] for a dense real [B]; one
    complex column per column of [B]. *)

val solve_hermitian_dense : factor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [solve_hermitian_dense f b] solves [(sE - A)^H X = B] with the same
    factorisation; used for the observability samples of the
    cross-Gramian method. *)
