(* Gramians of standard-form systems (E = I), with optional input
   correlation: the paper's Section IV-C replaces B B^T by B K B^T. *)

open Pmtbr_la

(* A X + X A^T + B B^T = 0. *)
let controllability ?(k : Mat.t option) ~(a : Mat.t) ~(b : Mat.t) () =
  let q =
    match k with
    | None -> Mat.mul b (Mat.transpose b)
    | Some k -> Mat.mul b (Mat.mul k (Mat.transpose b))
  in
  Lyap.solve a (Mat.symmetrize q)

(* A^T Y + Y A + C^T C = 0. *)
let observability ~(a : Mat.t) ~(c : Mat.t) () =
  Lyap.solve (Mat.transpose a) (Mat.mul (Mat.transpose c) c)

(* Cross Gramian A X + X A + B C = 0 (square systems). *)
let cross ~(a : Mat.t) ~(b : Mat.t) ~(c : Mat.t) () = Lyap.solve_cross a (Mat.mul b c)

