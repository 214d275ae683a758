(** Dense complex matrices, row-major on a [Complex.t array], with the
    operations their callers use, plus conversions with the real world.

    Each operation repeats the arithmetic of the generic scalar-field
    functor kept in the test oracle (its complex instance is
    [Pmtbr_oracle.Generic_cmat]) in the same order, with the same
    zero-skip (both parts zero), so every result is bitwise the
    functor's. *)

type t = { rows : int; cols : int; data : Complex.t array }
(** Entry [(i, j)] is [data.(i * cols + j)]. *)

exception Singular of int
(** Raised by {!lu} at the first column with no nonzero pivot. *)

val real_mul : float -> Complex.t -> Complex.t
(** [real_mul a z] is [{ re = a *. z.re; im = a *. z.im }].  Unlike
    [Complex.mul] by [{ re = a; im = 0. }], it has no cross terms: a zero
    part keeps its sign, and an infinite part never meets a [0.] factor
    that would make the other part NaN. *)

val create : int -> int -> t
val init : int -> int -> (int -> int -> Complex.t) -> t
val identity : int -> t
val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val copy : t -> t
val col : t -> int -> Complex.t array
val set_col : t -> int -> Complex.t array -> unit
val conj_transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t

val scale : float -> t -> t
(** Every entry through {!real_mul}. *)

val scale_elt : Complex.t -> t -> t
val mul : t -> t -> t
val mv : t -> Complex.t array -> Complex.t array
val frobenius : t -> float
val max_abs : t -> float

type lu

val lu : t -> lu
(** Partial pivoting on the modulus. *)

val lu_solve_vec : lu -> Complex.t array -> Complex.t array
val lu_solve : lu -> t -> t

val of_mat : Mat.t -> t
(** Embed a real matrix. *)

val re : t -> Mat.t
(** Entrywise real parts. *)

val im : t -> Mat.t
(** Entrywise imaginary parts. *)

val axpby_real : alpha:Complex.t -> Mat.t -> beta:Complex.t -> Mat.t -> t
(** [axpby_real ~alpha a ~beta b] is the complex matrix [alpha*a + beta*b]
    for real [a], [b] of equal shape: the shifted-pencil assembly used when
    forming [(sE - A)] densely. *)
