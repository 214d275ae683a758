(* Dense complex matrices plus conversions with the real world. *)

include Gen_mat.Make (Scalar.Cx)

let of_mat (m : Mat.t) = init m.Mat.rows m.Mat.cols (fun i j -> { Complex.re = Mat.get m i j; im = 0.0 })

let re (m : t) = Mat.init m.rows m.cols (fun i j -> (get m i j).Complex.re)
let im (m : t) = Mat.init m.rows m.cols (fun i j -> (get m i j).Complex.im)

(* [a + s*b] for real matrices a, b and complex s: the shifted-pencil
   assembly used when forming (sE - A). *)
let axpby_real ~(alpha : Complex.t) (a : Mat.t) ~(beta : Complex.t) (b : Mat.t) =
  assert (Mat.dims a = Mat.dims b);
  init a.Mat.rows a.Mat.cols (fun i j ->
      Complex.add
        (Scalar.Cx.scale (Mat.get a i j) alpha)
        (Scalar.Cx.scale (Mat.get b i j) beta))
