(* Householder QR factorisations of dense real matrices.

   [thin a] returns Q (m×n, orthonormal columns) and R (n×n upper triangular)
   with a = Q R, for m >= n; it runs on the panel-blocked factorisation in
   [Par_kernel], which is bitwise-identical to the classic unblocked sweep
   (the test oracle [Unblocked_qr]) for any worker count.  [factorize]
   exposes the packed reflectors directly: [apply_q]/[apply_qt] multiply by
   Q or Q^T without ever materialising the m×n factor, which is cheaper
   whenever the product is consumed once.  [orth] drops columns whose R
   diagonal is negligible, returning an orthonormal basis of the column
   space.  [pivoted] is the rank-revealing column-pivoted variant used for
   cheap rank estimates (RRQR in the paper's Section V-C discussion); its
   elimination is inherently sequential (each pivot choice depends on the
   previous downdates), so it stays serial — it also serves as the dense
   baseline the variant benchmarks gate against.  [pivoted_factor] runs
   the same elimination but returns the packed factor, for callers that
   only ever apply Q. *)

type pivoted = { q : Mat.t; r : Mat.t; jpvt : int array; rank : int }
type packed = Par_kernel.qr

(* Form the thin Q (m×n) by applying reflectors to the first n columns of I. *)
let form_thin_q w betas n =
  let m = w.Mat.rows in
  let q = Mat.init m n (fun i j -> if i = j then 1.0 else 0.0) in
  for k = min m n - 1 downto 0 do
    let beta = betas.(k) in
    if beta <> 0.0 then
      for j = 0 to n - 1 do
        (* v = [1; w(k+1..,k)] *)
        let dot = ref (Mat.get q k j) in
        for i = k + 1 to m - 1 do
          dot := !dot +. (Mat.get w i k *. Mat.get q i j)
        done;
        let s = beta *. !dot in
        Mat.set q k j (Mat.get q k j -. s);
        for i = k + 1 to m - 1 do
          Mat.set q i j (Mat.get q i j -. (s *. Mat.get w i k))
        done
      done
  done;
  q

(* ------------------------------------------------------------------ *)
(* Packed-factor interface (blocked kernels)                           *)
(* ------------------------------------------------------------------ *)

let factorize ?workers a = Par_kernel.qr_factor ?workers a
let r_factor (f : packed) = Par_kernel.qr_r f
let thin_q ?workers ?cols (f : packed) = Par_kernel.qr_thin_q ?workers ?cols f
let apply_q ?workers (f : packed) x = Par_kernel.qr_apply_q ?workers f x
let apply_qt ?workers (f : packed) x = Par_kernel.qr_apply_qt ?workers f x
let apply_qt_vec (f : packed) x = Par_kernel.qr_apply_qt_vec f x

let thin ?workers (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  assert (m >= n);
  let f = factorize ?workers a in
  (thin_q ?workers f, r_factor f)

(* ------------------------------------------------------------------ *)
(* Column-pivoted (rank-revealing) elimination                         *)
(* ------------------------------------------------------------------ *)

(* Shared elimination core: packed reflectors of the permuted matrix, the
   permutation, and the detected rank. *)
let pivoted_elim ~tol (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  let w = Mat.copy a in
  let jpvt = Array.init n (fun j -> j) in
  let colnorm = Array.init n (fun j -> Vec.dot (Mat.col w j) (Mat.col w j)) in
  let swap_cols j1 j2 =
    if j1 <> j2 then begin
      for i = 0 to m - 1 do
        let t = Mat.get w i j1 in
        Mat.set w i j1 (Mat.get w i j2);
        Mat.set w i j2 t
      done;
      let t = jpvt.(j1) in
      jpvt.(j1) <- jpvt.(j2);
      jpvt.(j2) <- t;
      let t = colnorm.(j1) in
      colnorm.(j1) <- colnorm.(j2);
      colnorm.(j2) <- t
    end
  in
  let kmax = min m n in
  let betas = Array.make kmax 0.0 in
  let rank = ref 0 in
  (* rank threshold is relative to the largest original column *)
  let norm_scale =
    let biggest = Array.fold_left Float.max 0.0 colnorm in
    Float.max 1e-300 (sqrt biggest)
  in
  (try
     for k = 0 to kmax - 1 do
       (* pick the remaining column of largest norm *)
       let jbest = ref k in
       for j = k + 1 to n - 1 do
         if colnorm.(j) > colnorm.(!jbest) then jbest := j
       done;
       swap_cols k !jbest;
       let normx = ref 0.0 in
       for i = k to m - 1 do
         let v = Mat.get w i k in
         normx := !normx +. (v *. v)
       done;
       let normx = sqrt !normx in
       if normx <= tol *. norm_scale then raise Exit;
       incr rank;
       let alpha = if Mat.get w k k >= 0.0 then -.normx else normx in
       let v0 = Mat.get w k k -. alpha in
       let vtv = ref (v0 *. v0) in
       for i = k + 1 to m - 1 do
         let v = Mat.get w i k in
         vtv := !vtv +. (v *. v)
       done;
       let beta = if !vtv = 0.0 then 0.0 else 2.0 /. !vtv in
       for j = k + 1 to n - 1 do
         let dot = ref (v0 *. Mat.get w k j) in
         for i = k + 1 to m - 1 do
           dot := !dot +. (Mat.get w i k *. Mat.get w i j)
         done;
         let s = beta *. !dot in
         Mat.set w k j (Mat.get w k j -. (s *. v0));
         for i = k + 1 to m - 1 do
           Mat.set w i j (Mat.get w i j -. (s *. Mat.get w i k))
         done
       done;
       Mat.set w k k alpha;
       if v0 <> 0.0 then
         for i = k + 1 to m - 1 do
           Mat.set w i k (Mat.get w i k /. v0)
         done;
       betas.(k) <- beta *. v0 *. v0;
       (* downdate column norms *)
       for j = k + 1 to n - 1 do
         let v = Mat.get w k j in
         colnorm.(j) <- Float.max 0.0 (colnorm.(j) -. (v *. v))
       done
     done
   with Exit -> ());
  (w, betas, jpvt, !rank)

let pivoted ?(tol = 1e-12) (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  let w, betas, jpvt, rank = pivoted_elim ~tol a in
  let kmax = min m n in
  let r = Mat.init n n (fun i j -> if i <= j && i < kmax then Mat.get w i j else 0.0) in
  let q = form_thin_q w betas kmax in
  { q; r; jpvt; rank }

let pivoted_factor ?(tol = 1e-12) (a : Mat.t) =
  let w, betas, jpvt, rank = pivoted_elim ~tol a in
  ({ Par_kernel.wf = w; betas }, jpvt, rank)

(* Orthonormal basis of the column space via column-pivoted QR; handles
   rank-deficient and wide matrices.  A numerically zero input yields a
   basis with zero columns.  Only the [rank] retained columns of Q are
   ever formed — each is the same backward reflector accumulation the
   full [pivoted] would produce, bit for bit. *)
let orth ?(tol = 1e-12) ?workers (a : Mat.t) =
  let f, _, rank = pivoted_factor ~tol a in
  Par_kernel.qr_thin_q ?workers ~cols:(min rank (min a.Mat.rows a.Mat.cols)) f
