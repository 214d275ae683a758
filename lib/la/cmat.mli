(** Dense complex matrices, plus conversions with the real world. *)

include Gen_mat.S with type elt = Complex.t

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
