(** Exact truncated balanced realisation (TBR), the baseline that PMTBR
    approximates.  Square-root method: factor both Gramians, SVD the
    product of the factors, build the oblique balancing projection.  The
    Hankel singular values fall out of the SVD and give Glover's error
    bound [2 * sum of the truncated tail]. *)

open Pmtbr_la

type t = {
  rom : Dss.t;  (** reduced standard-form model *)
  hsv : float array;  (** all Hankel singular values, descending *)
  order : int;  (** reduced order actually used *)
}

val error_bound : float array -> int -> float
(** [error_bound hsv q] is Glover's bound [2 * sum_{i >= q} hsv_i] on the
    H-infinity error of the order-[q] truncation. *)

val choose_order : sigma:float array -> ?order:int -> ?tol:float -> unit -> int
(** The truncation order of every method that truncates by singular
    values: the smallest [q] whose tail sum [sum_{i >= q} sigma_i] is at
    most [tol * sigma_0] (default [1e-10]), so [tol] is relative and the
    same on every network scale.  An explicit [order] wins outright
    (clamped to the number of values); only when [tol] is {e also} given
    does the tail criterion cap it — the default tolerance never shrinks
    an explicitly requested order. *)

val truncation_order :
  floor:float -> sigma:float array -> ?order:int -> ?tol:float -> unit -> int
(** {!choose_order}, never keeping a value at or below [floor * sigma_0]
    (numerical noise), and at least 1. *)

val hankel_singular_values : ?k:Mat.t -> a:Mat.t -> b:Mat.t -> c:Mat.t -> unit -> float array
(** Hankel singular values of a standard-form system; [k] is the optional
    input correlation matrix. *)

val reduce : ?order:int -> ?tol:float -> ?k:Mat.t -> a:Mat.t -> b:Mat.t -> c:Mat.t -> unit -> t
(** Balanced truncation of a standard-form model at
    {!truncation_order} (values at or below [1e-13 sigma_0] are never
    kept).  [k] selects input-correlated TBR. *)

val reduce_dss : ?order:int -> ?tol:float -> ?k:Mat.t -> Dss.t -> t
(** Balanced truncation of a descriptor system with invertible E (converted
    through {!Dss.to_standard}). *)

val hsv_dss : Dss.t -> float array
(** Hankel singular values of a descriptor system with invertible E. *)
