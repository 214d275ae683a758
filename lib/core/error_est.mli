(** Singular-value-based error estimation (paper Section V-B): the trailing
    singular values of [ZW] estimate the error of the order-q reduced model
    the way truncated Hankel singular values bound the TBR error. *)

val curve : float array -> float array
(** TBR-style estimates [2 * sum_{i >= q} sigma_i] for every order
    [0 .. n], computed as one reverse cumulative sum (O(n)). *)

val normalized_curve : float array -> float array
(** {!curve} normalised by [2 * sigma_0] (the "normalised error estimate"
    of paper Fig. 16). *)

val order_for : float array -> tol:float -> int * bool
(** Smallest order whose normalised estimate is at most [tol], paired
    with whether any order actually met it.  When no order does (a
    negative or NaN tolerance — every finite non-negative one is met at
    full order, where the tail is empty), the order falls back to the
    last curve index and [met] is [false]; callers must not report the
    fallback as satisfying the tolerance. *)
