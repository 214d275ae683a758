(* The generic dense kernels at floats, [Gen_mat.Make (Scalar.Float)],
   compiled through the functor's boxed body, [Mat]'s conveniences as
   they were written on it, and the closure loops that the unboxed
   products replaced.  Every [Mat] operation, [Triplet.mul_dense] /
   [to_dense] and [Sample_cache.apply_q] are pinned against these bit
   for bit, and [bench/dense_bench] times its GEMM baseline on [mul]
   here. *)

open Pmtbr_la

include Gen_mat.Make (Scalar.Float)

let of_mat (m : Mat.t) = { rows = m.Mat.rows; cols = m.Mat.cols; data = Array.copy m.Mat.data }
let to_mat m = { Mat.rows = m.rows; cols = m.cols; data = Array.copy m.data }

let diag v = init (Array.length v) (Array.length v) (fun i j -> if i = j then v.(i) else 0.0)
let diagonal m = Array.init (min m.rows m.cols) (fun i -> get m i i)

let symmetrize m =
  assert (m.rows = m.cols);
  init m.rows m.cols (fun i j -> 0.5 *. (get m i j +. get m j i))

(* A^T A through the functor's accessors: [Mat.gram] before it read its
   operand directly. *)
let gram m =
  let g = create m.cols m.cols in
  for k = 0 to m.rows - 1 do
    let base = k * m.cols in
    for i = 0 to m.cols - 1 do
      let aki = m.data.(base + i) in
      if aki <> 0.0 then
        for j = i to m.cols - 1 do
          let v = get g i j +. (aki *. m.data.(base + j)) in
          set g i j v
        done
    done
  done;
  for i = 0 to m.cols - 1 do
    for j = 0 to i - 1 do
      set g i j (get g j i)
    done
  done;
  g

(* [Triplet.to_dense]: one [update] closure per entry, in list order. *)
let triplet_to_dense t =
  let rows, cols = Pmtbr_sparse.Triplet.dims t in
  let m = create rows cols in
  List.iter (fun (i, j, v) -> update m i j (fun x -> x +. v)) (Pmtbr_sparse.Triplet.entries t);
  to_mat m

(* [Triplet.mul_dense]: per entry and output column, an [update] closure
   reading the operand through [get]. *)
let triplet_mul_dense t (mm : Mat.t) =
  let m = of_mat mm in
  let rows, cols = Pmtbr_sparse.Triplet.dims t in
  assert (cols = m.rows);
  let out = create rows m.cols in
  List.iter
    (fun (i, j, v) ->
      for c = 0 to m.cols - 1 do
        update out i c (fun x -> x +. (v *. get m j c))
      done)
    (Pmtbr_sparse.Triplet.entries t);
  to_mat out

(* [Sample_cache.apply_q]'s column-outer loop, V = Q * coeff for an n x c
   Q: every (cache column j, coefficient column k) pair with a nonzero
   coefficient sweeps the whole k-th column of V. *)
let apply_q (qm : Mat.t) (cm : Mat.t) =
  let q = of_mat qm and coeff = of_mat cm in
  assert (coeff.rows = q.cols);
  let n = q.rows and p = coeff.cols in
  let out = create n p in
  for j = 0 to q.cols - 1 do
    for k = 0 to p - 1 do
      let w = get coeff j k in
      if w <> 0.0 then
        for i = 0 to n - 1 do
          out.data.((i * p) + k) <- out.data.((i * p) + k) +. (w *. get q i j)
        done
    done
  done;
  to_mat out
