(* Lyapunov and Sylvester matrix equations via the (complex) Schur form,
   i.e. the Bartels-Stewart algorithm.

   The decomposition of A is exposed as a reusable value so that sweeps that
   solve many equations with the same A and different right-hand sides (the
   paper's Fig. 3 varies only B) factor A once. *)

exception Unstable_pencil

type factor =
  | Sym of float array * Mat.t (* eigenvalues, eigenvectors: A = V diag V^T *)
  | Gen of Cschur.t

(* Decide the fast symmetric path automatically.  The n = 0 pencil is
   trivially (and vacuously) stable: route it through the symmetric branch
   with an empty spectrum rather than asking the eigensolvers about it. *)
let factor (a : Mat.t) =
  if a.Mat.rows = 0 then Sym ([||], Mat.create 0 0)
  else if Mat.is_symmetric ~tol:1e-12 a then begin
    let values, vectors = Eig_sym.decompose a in
    Sym (values, vectors)
  end
  else Gen (Cschur.of_real a)

let factor_general (a : Mat.t) =
  if a.Mat.rows = 0 then Sym ([||], Mat.create 0 0) else Gen (Cschur.of_real a)

(* Triangular solve: (t + sigma I) x = b for upper-triangular t. *)
let tri_shifted_solve (t : Cmat.t) (sigma : Complex.t) (b : Complex.t array) =
  let n = t.Cmat.rows in
  let x = Array.copy b in
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul (Cmat.get t i j) x.(j))
    done;
    let d = Complex.add (Cmat.get t i i) sigma in
    if Complex.norm d < 1e-300 then raise Unstable_pencil;
    x.(i) <- Complex.div !acc d
  done;
  x

(* Solve A X + X A^T + Q = 0 (Q symmetric) for symmetric X. *)
let solve_with fact (q : Mat.t) =
  match fact with
  | Sym (values, v) ->
      let n = Array.length values in
      let qh = Mat.mul (Mat.transpose v) (Mat.mul q v) in
      let y =
        Mat.init n n (fun i j ->
            let d = values.(i) +. values.(j) in
            if Float.abs d < 1e-300 then raise Unstable_pencil;
            -.Mat.get qh i j /. d)
      in
      Mat.symmetrize (Mat.mul v (Mat.mul y (Mat.transpose v)))
  | Gen { Cschur.q = u; tm = t } ->
      let n = t.Cmat.rows in
      let qc = Cmat.of_mat q in
      let qh = Cmat.mul (Cmat.conj_transpose u) (Cmat.mul qc u) in
      (* T Y + Y T^H = -Qh, solved column-by-column from the last. *)
      let y = Cmat.create n n in
      for k = n - 1 downto 0 do
        let rhs =
          Array.init n (fun i ->
              let acc = ref (Complex.neg (Cmat.get qh i k)) in
              for j = k + 1 to n - 1 do
                acc :=
                  Complex.sub !acc
                    (Complex.mul (Complex.conj (Cmat.get t k j)) (Cmat.get y i j))
              done;
              !acc)
        in
        let sigma = Complex.conj (Cmat.get t k k) in
        Cmat.set_col y k (tri_shifted_solve t sigma rhs)
      done;
      let x = Cmat.mul u (Cmat.mul y (Cmat.conj_transpose u)) in
      Mat.symmetrize (Cmat.re x)

let solve (a : Mat.t) (q : Mat.t) = solve_with (factor a) q

(* Cross-Gramian Sylvester equation A X + X A + Q = 0 (Q = B C).  For
   symmetric A this coincides with the Lyapunov recurrence in the eigenbasis
   (A = A^T), except that the solution need not be symmetric. *)
let rec solve_cross_with fact (qm : Mat.t) =
  match fact with
  | Sym (values, v) ->
      let n = Array.length values in
      let qh = Mat.mul (Mat.transpose v) (Mat.mul qm v) in
      let y =
        Mat.init n n (fun i j ->
            let d = values.(i) +. values.(j) in
            if Float.abs d < 1e-300 then raise Unstable_pencil;
            -.Mat.get qh i j /. d)
      in
      Mat.mul v (Mat.mul y (Mat.transpose v))
  | Gen schur -> solve_cross_schur schur qm

and solve_cross_schur ({ Cschur.q = u; tm = t } : Cschur.t) (qm : Mat.t) =
  let n = t.Cmat.rows in
  let qh = Cmat.mul (Cmat.conj_transpose u) (Cmat.mul (Cmat.of_mat qm) u) in
  (* T Y + Y T = -Qh, ascending columns since T is upper triangular. *)
  let y = Cmat.create n n in
  for k = 0 to n - 1 do
    let rhs =
      Array.init n (fun i ->
          let acc = ref (Complex.neg (Cmat.get qh i k)) in
          for j = 0 to k - 1 do
            acc := Complex.sub !acc (Complex.mul (Cmat.get t j k) (Cmat.get y i j))
          done;
          !acc)
    in
    Cmat.set_col y k (tri_shifted_solve t (Cmat.get t k k) rhs)
  done;
  Cmat.re (Cmat.mul u (Cmat.mul y (Cmat.conj_transpose u)))

let solve_cross (a : Mat.t) (qm : Mat.t) = solve_cross_with (factor_general a) qm

(* Residual norms, used by the tests. *)
let lyapunov_residual a x q =
  Mat.frobenius (Mat.add (Mat.add (Mat.mul a x) (Mat.mul x (Mat.transpose a))) q)

let descriptor_residual ~e ~a x q =
  Mat.frobenius
    (Mat.add
       (Mat.add
          (Mat.mul a (Mat.mul x (Mat.transpose e)))
          (Mat.mul e (Mat.mul x (Mat.transpose a))))
       q)

let sylvester_cross_residual a x q =
  Mat.frobenius (Mat.add (Mat.add (Mat.mul a x) (Mat.mul x a)) q)
