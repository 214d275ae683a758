(* Symmetric eigendecomposition by the cyclic Jacobi method.

   [decompose a] returns (values, vectors) with a = V * diag(values) * V^T,
   eigenvalues sorted descending and V's columns the matching orthonormal
   eigenvectors.  Used for Gramian factorisations (Gramians are symmetric
   PSD) and for the fast symmetric-A Lyapunov path. *)

let max_sweeps = 60

(* Cyclic Jacobi sweeps in place on the symmetrised matrix [w]'s data,
   accumulating the rotations into the rows of [vt] (V transposed, so
   both of its updates are contiguous) when given.  The formulas and the
   update order (columns p, q of w; rows p, q; V) are those of the
   element-wise kernel kept as [Pmtbr_oracle.Cyclic_eig], which the suite
   pins bitwise; w drifts from exact symmetry, so the strided column pass
   stays.  Every index is below n*n: unchecked access, and no float is
   boxed. *)
let sweep (w : Mat.t) (vt : float array option) =
  let n = w.Mat.rows and d = w.Mat.data in
  let off () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let x = Array.unsafe_get d ((i * n) + j) in
        acc := !acc +. (x *. x)
      done
    done;
    sqrt !acc
  in
  let scale = Float.max 1e-300 (Mat.max_abs w) in
  let tol = 1e-15 *. scale *. float_of_int n in
  let sweeps = ref 0 in
  while off () > tol && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      let rp = p * n in
      for q = p + 1 to n - 1 do
        let rq = q * n in
        let apq = Array.unsafe_get d (rp + q) in
        if Float.abs apq > 1e-18 *. scale then begin
          let app = Array.unsafe_get d (rp + p) and aqq = Array.unsafe_get d (rq + q) in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt (1.0 +. (theta *. theta)))
          in
          let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
          let s = c *. t in
          for k = 0 to n - 1 do
            let kp = (k * n) + p and kq = (k * n) + q in
            let wkp = Array.unsafe_get d kp and wkq = Array.unsafe_get d kq in
            Array.unsafe_set d kp ((c *. wkp) -. (s *. wkq));
            Array.unsafe_set d kq ((s *. wkp) +. (c *. wkq))
          done;
          for k = 0 to n - 1 do
            let wpk = Array.unsafe_get d (rp + k) and wqk = Array.unsafe_get d (rq + k) in
            Array.unsafe_set d (rp + k) ((c *. wpk) -. (s *. wqk));
            Array.unsafe_set d (rq + k) ((s *. wpk) +. (c *. wqk))
          done;
          match vt with
          | None -> ()
          | Some vt ->
              for k = 0 to n - 1 do
                let vpk = Array.unsafe_get vt (rp + k) and vqk = Array.unsafe_get vt (rq + k) in
                Array.unsafe_set vt (rp + k) ((c *. vpk) -. (s *. vqk));
                Array.unsafe_set vt (rq + k) ((s *. vpk) +. (c *. vqk))
              done
        end
      done
    done
  done

(* The swept diagonal, descending, and its order: both entry points sort
   indices alike, so ties (0.0 against -0.0 among them) fall alike. *)
let sorted_diagonal w =
  let values = Mat.diagonal w in
  let order = Array.init (Array.length values) Fun.id in
  Array.sort (fun i j -> compare values.(j) values.(i)) order;
  (Array.map (fun i -> values.(i)) order, order)

let decompose (a : Mat.t) =
  assert (a.Mat.rows = a.Mat.cols);
  let n = a.Mat.rows in
  let w = Mat.symmetrize a in
  let vt = (Mat.identity n).Mat.data in
  sweep w (Some vt);
  let sorted, order = sorted_diagonal w in
  (sorted, Mat.init n n (fun i j -> vt.((order.(j) * n) + i)))

let eigenvalues a =
  let w = Mat.symmetrize a in
  sweep w None;
  fst (sorted_diagonal w)

(* Factor of a symmetric PSD matrix: [x = l * l^T] with negative eigenvalues
   (numerical noise in Lyapunov solutions) clipped to zero.  Columns of [l]
   are scaled eigenvectors, so rank deficiency is handled gracefully. *)
let psd_factor ?(tol = 1e-14) (x : Mat.t) =
  let values, v = decompose x in
  let n = Array.length values in
  let vmax = if n = 0 then 0.0 else Float.max 0.0 values.(0) in
  let cols = ref [] in
  for j = n - 1 downto 0 do
    if values.(j) > tol *. vmax && values.(j) > 0.0 then cols := j :: !cols
  done;
  let cols = Array.of_list !cols in
  Mat.init n (Array.length cols) (fun i j ->
      Mat.get v i cols.(j) *. sqrt values.(cols.(j)))
