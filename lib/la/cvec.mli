(** Helpers on [Complex.t array] vectors. *)

val re : Complex.t array -> float array
(** Real parts. *)

val im : Complex.t array -> float array
(** Imaginary parts. *)

val dot : Complex.t array -> Complex.t array -> Complex.t
(** Hermitian inner product, conjugating the {e first} argument. *)

val norm2 : Complex.t array -> float
(** Euclidean norm. *)

val scale : Complex.t -> Complex.t array -> Complex.t array
(** Scalar multiple. *)

val sub : Complex.t array -> Complex.t array -> Complex.t array
(** Elementwise difference. *)

val max_abs : Complex.t array -> float
(** Largest modulus. *)
