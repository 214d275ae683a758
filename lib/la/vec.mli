(** Helpers on [float array] vectors. *)

val zeros : int -> float array
(** [zeros n] is the zero vector of dimension [n]. *)

val dot : float array -> float array -> float
(** Euclidean inner product.  Both arguments must have the same length. *)

val norm2 : float array -> float
(** Euclidean norm. *)

val scale : float -> float array -> float array
(** [scale a x] is [a * x]. *)

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] performs [y <- y + a*x] in place. *)

val normalize : float array -> float array
(** Unit-norm copy; returns the input unchanged if it is zero. *)

val max_abs_diff : float array -> float array -> float
(** Infinity norm of the difference. *)

val linspace : float -> float -> int -> float array
(** [linspace lo hi n] is [n] equispaced values from [lo] to [hi]
    inclusive. *)

val logspace : float -> float -> int -> float array
(** [logspace lo hi n] is [n] log-spaced values from [lo] to [hi]; both
    bounds must be positive. *)
