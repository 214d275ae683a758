(* The symmetric cyclic-Jacobi eigensolver [Eig_sym] ran before its
   sweeps moved onto flat rows: every element read and written through
   [Mat.get]/[Mat.set], V held in its natural (column-updated) layout.
   [Eig_sym.decompose] repeats this arithmetic operation for operation —
   the same rotations, in the same order, on the same values — so
   [test_la] pins it bitwise, values and vectors, and [bench/dense_bench]
   times its speedup gate against [decompose] here. *)

open Pmtbr_la

let max_sweeps = 60

let decompose (a : Mat.t) =
  assert (a.Mat.rows = a.Mat.cols);
  let n = a.Mat.rows in
  let w = Mat.symmetrize a in
  let v = Mat.identity n in
  let off () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let x = Mat.get w i j in
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
      for q = p + 1 to n - 1 do
        let apq = Mat.get w p q in
        if Float.abs apq > 1e-18 *. scale then begin
          let app = Mat.get w p p and aqq = Mat.get w q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt (1.0 +. (theta *. theta)))
          in
          let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
          let s = c *. t in
          (* Rotate rows/cols p and q of w. *)
          for k = 0 to n - 1 do
            let wkp = Mat.get w k p and wkq = Mat.get w k q in
            Mat.set w k p ((c *. wkp) -. (s *. wkq));
            Mat.set w k q ((s *. wkp) +. (c *. wkq))
          done;
          for k = 0 to n - 1 do
            let wpk = Mat.get w p k and wqk = Mat.get w q k in
            Mat.set w p k ((c *. wpk) -. (s *. wqk));
            Mat.set w q k ((s *. wpk) +. (c *. wqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Mat.get v k p and vkq = Mat.get v k q in
            Mat.set v k p ((c *. vkp) -. (s *. vkq));
            Mat.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  let values = Array.init n (fun i -> Mat.get w i i) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare values.(j) values.(i)) order;
  let sorted = Array.map (fun i -> values.(i)) order in
  let vs = Mat.init n n (fun i j -> Mat.get v i order.(j)) in
  (sorted, vs)

let eigenvalues a = fst (decompose a)

(* The LR-ADI compression shape the comparisons run on: the Gram of a
   random [rows] x [n] factor whose columns fall from 1 to 1e-12. *)
let graded_gram ~seed ~rows n =
  let z = Mat.random ~seed rows n in
  let last = float_of_int (max 1 (n - 1)) in
  Mat.gram
    (Mat.init rows n (fun i j -> Mat.get z i j *. (10.0 ** (-12.0 *. float_of_int j /. last))))
