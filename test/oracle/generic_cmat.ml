(* The generic dense kernels at complex scalars, [Gen_mat.Make (Scalar.Cx)],
   and [Cmat]'s conversions as they were written on it.  Every [Cmat]
   operation is pinned against these bit for bit. *)

open Pmtbr_la

include Gen_mat.Make (Scalar.Cx)

let of_cmat (m : Cmat.t) = { rows = m.Cmat.rows; cols = m.Cmat.cols; data = Array.copy m.Cmat.data }
let to_cmat m = { Cmat.rows = m.rows; cols = m.cols; data = Array.copy m.data }

let of_mat (m : Mat.t) =
  init m.Mat.rows m.Mat.cols (fun i j -> { Complex.re = Mat.get m i j; im = 0.0 })

let re m = Generic_mat.to_mat (Generic_mat.init m.rows m.cols (fun i j -> (get m i j).Complex.re))
let im m = Generic_mat.to_mat (Generic_mat.init m.rows m.cols (fun i j -> (get m i j).Complex.im))

let axpby_real ~(alpha : Complex.t) (a : Mat.t) ~(beta : Complex.t) (b : Mat.t) =
  assert (Mat.dims a = Mat.dims b);
  init a.Mat.rows a.Mat.cols (fun i j ->
      Complex.add (Scalar.Cx.scale (Mat.get a i j) alpha) (Scalar.Cx.scale (Mat.get b i j) beta))
