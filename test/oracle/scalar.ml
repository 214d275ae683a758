(* Scalar fields for the generic dense ([Gen_mat]) and sparse
   ([Boxed_lu]) reference functors.  [abs] is the modulus used for
   pivoting; [conj] is the identity on reals. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val conj : t -> t
  val abs : t -> float
  val scale : float -> t -> t
  val is_zero : t -> bool
end

module Float : S with type t = float = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let conj x = x
  let abs = Float.abs
  let scale a x = a *. x
  let is_zero x = x = 0.0
end

module Cx : S with type t = Complex.t = struct
  type t = Complex.t

  let zero = Complex.zero
  let one = Complex.one
  let add = Complex.add
  let sub = Complex.sub
  let mul = Complex.mul
  let div = Complex.div
  let conj = Complex.conj
  let abs = Complex.norm
  let scale a { Complex.re; im } = { Complex.re = a *. re; im = a *. im }
  let is_zero { Complex.re; im } = re = 0.0 && im = 0.0
end
