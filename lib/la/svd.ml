(* Thin singular value decomposition of dense real matrices by one-sided
   Jacobi rotations (Hestenes).  Chosen for robustness and simplicity: it
   computes small singular values to high relative accuracy, which matters
   here because PMTBR order control reads 10-15 decades of singular value
   decay (paper Fig. 5).

   The working matrix lives as one unboxed float array per column: every
   Jacobi rotation touches exactly two columns, so the column layout turns
   the inner loops into contiguous unsafe array walks.

   The rotations run on the round-robin (tournament) schedule of
   [Par_kernel.jacobi_rounds], whose rounds rotate disjoint column pairs
   and therefore parallelise with bitwise worker-invariance.  The serial
   cyclic sweep it replaced applies the identical rotation arithmetic to
   the same pairs in another sequence; it lives with the test oracles
   ([Pmtbr_oracle.Cyclic_svd]), which pin the two orders' singular values
   within 1e-12 relative of each other.

   On very tall blocks — the PMTBR sample shape, n states x tens-to-
   hundreds of columns — the rotations run on the small triangular factor
   of a blocked QR (the xGESVJ-style QR preconditioning step): sweeps then
   cost O(c^3) instead of O(n c^2).  The preconditioning only engages when
   rows > 2 * cols; moderately tall blocks keep the direct rotations and
   their full high relative accuracy.

   The working columns evolve the same whether or not the right-hand
   rotations are accumulated beside them, so [decompose], [left] and
   [values] agree bit for bit on everything they share.

   [decompose a] returns (u, sigma, v) with a = u * diag(sigma) * v^T,
   u : m×r, v : n×r orthonormal columns, sigma descending, r = min m n. *)

type t = { u : Mat.t; sigma : float array; v : Mat.t }

let max_sweeps = 60

let columns_of (a : Mat.t) = Array.init a.Mat.cols (fun j -> Mat.col a j)
let identity_cols n = Array.init n (fun j -> Array.init n (fun i -> if i = j then 1.0 else 0.0))

(* QR preconditioning is backward stable at eps * sigma_max, which is
   plenty for order control but would cost the tiniest values their
   relative accuracy; only clearly tall blocks — where the O(n c^2)
   sweeps dominate and the flop savings are real — take the shortcut. *)
let preconditionable m n = n > 0 && m > 2 * n

(* Rotate the columns of [a] (rows >= cols) to mutual orthogonality,
   accumulating the right-hand rotations into [v] when given.  Returns
   the rotated columns, their length, and the map carrying normalised
   rotated columns back to [a]'s row space (the preconditioning QR's Q,
   or nothing). *)
let rotate ?workers ~threshold ?v (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  if preconditionable m n then begin
    let f = Par_kernel.qr_factor ?workers a in
    let w = columns_of (Par_kernel.qr_r f) in
    Par_kernel.jacobi_rounds ?workers ?v ~threshold ~max_sweeps ~rows:n w;
    (w, n, fun u -> Par_kernel.qr_apply_q ?workers f u)
  end
  else begin
    let w = columns_of a in
    Par_kernel.jacobi_rounds ?workers ?v ~threshold ~max_sweeps ~rows:m w;
    (w, m, Fun.id)
  end

(* The column norms of the rotated [w] in descending order, with the
   permutation that sorts them. *)
let sorted (w : float array array) =
  let sigma = Array.map Vec.norm2 w in
  let order = Array.init (Array.length sigma) (fun j -> j) in
  Array.sort (fun i j -> compare sigma.(j) sigma.(i)) order;
  (order, Array.map (fun j -> sigma.(j)) order)

(* Left singular vectors: the rotated columns normalised, in [order]. *)
let normalised ~(w : float array array) ~sigma order rows =
  let u = Mat.create rows (Array.length w) in
  Array.iteri
    (fun jnew jold ->
      let s = sigma.(jnew) and colw = w.(jold) in
      Mat.set_col u jnew (if s > 0.0 then Vec.scale (1.0 /. s) colw else colw))
    order;
  u

(* Right singular vectors: the accumulated rotations, in [order]. *)
let gathered (v : float array array) order =
  let n = Array.length v in
  let vs = Mat.create n n in
  Array.iteri (fun jnew jold -> Mat.set_col vs jnew v.(jold)) order;
  vs

(* Left vectors and values of a block with rows >= cols, and the
   permutation that sorted them (which also orders any accumulated [v]). *)
let tall ?workers ?v (a : Mat.t) =
  let w, rows, lift = rotate ?workers ~threshold:1e-15 ?v a in
  let order, sigma = sorted w in
  (lift (normalised ~w ~sigma order rows), sigma, order)

let decompose ?workers (a : Mat.t) =
  let wide = a.Mat.rows < a.Mat.cols in
  let b = if wide then Mat.transpose a else a in
  let v = identity_cols b.Mat.cols in
  let u, sigma, order = tall ?workers ~v b in
  let v = gathered v order in
  if wide then { u = v; sigma; v = u } else { u; sigma; v }

(* A wide block's left vectors are the accumulated rotations of its
   transpose, so only that side is formed; a tall block never accumulates
   rotations at all. *)
let left ?workers (a : Mat.t) =
  if a.Mat.rows >= a.Mat.cols then
    let u, sigma, _ = tall ?workers a in
    (u, sigma)
  else begin
    let at = Mat.transpose a in
    let v = identity_cols at.Mat.cols in
    let w, _, _ = rotate ?workers ~threshold:1e-15 ~v at in
    let order, sigma = sorted w in
    (gathered v order, sigma)
  end

(* Singular values only: the same rotations on the same columns, with no
   U or V formed.  A looser [threshold] trades (relative) accuracy for
   fewer sweeps; adaptive order-control monitors use that, final
   decompositions must not. *)
let values ?workers ?(threshold = 1e-15) (a : Mat.t) =
  let a = if a.Mat.rows >= a.Mat.cols then a else Mat.transpose a in
  let w, _, _ = rotate ?workers ~threshold a in
  snd (sorted w)

(* Numerical rank at relative tolerance [tol]. *)
let rank ?(tol = 1e-12) ?workers a =
  let s = values ?workers a in
  if Array.length s = 0 || s.(0) = 0.0 then 0
  else begin
    let r = ref 0 in
    Array.iter (fun si -> if si > tol *. s.(0) then incr r) s;
    !r
  end
