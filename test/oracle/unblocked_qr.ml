(* The classic unblocked Householder sweep that [Qr.thin] replaced with
   the panel-blocked [Par_kernel] factorisation: one reflector per column,
   applied column by column, then the thin Q formed from the identity.
   The blocked path is bitwise-identical to it for any worker count —
   [test_par_kernel] pins that, and [bench/dense_bench] times the blocked
   kernel against it. *)

open Pmtbr_la

(* In-place Householder on a copy; returns packed reflectors + R. *)
let householder_factor (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  let w = Mat.copy a in
  let betas = Array.make (min m n) 0.0 in
  for k = 0 to min m n - 1 do
    (* Build the reflector annihilating w.(k+1..m-1, k). *)
    let normx = ref 0.0 in
    for i = k to m - 1 do
      let v = Mat.get w i k in
      normx := !normx +. (v *. v)
    done;
    let normx = sqrt !normx in
    if normx > 0.0 then begin
      let alpha = if Mat.get w k k >= 0.0 then -.normx else normx in
      let v0 = Mat.get w k k -. alpha in
      (* v = [v0; w(k+1..,k)], beta = 2/(v^T v) *)
      let vtv = ref (v0 *. v0) in
      for i = k + 1 to m - 1 do
        let v = Mat.get w i k in
        vtv := !vtv +. (v *. v)
      done;
      let beta = if !vtv = 0.0 then 0.0 else 2.0 /. !vtv in
      betas.(k) <- beta;
      (* Apply to trailing columns: w_j -= beta * v * (v^T w_j). *)
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
      (* Store reflector below diagonal (v0 overwrites diag slot later). *)
      Mat.set w k k alpha;
      if v0 <> 0.0 then
        for i = k + 1 to m - 1 do
          Mat.set w i k (Mat.get w i k /. v0)
        done;
      (* Rescale beta for the normalised reflector v' = v / v0:
         beta' = beta * v0^2. *)
      betas.(k) <- beta *. v0 *. v0
    end
  done;
  (w, betas)

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

let thin (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  assert (m >= n);
  let w, betas = householder_factor a in
  let r = Mat.init n n (fun i j -> if i <= j then Mat.get w i j else 0.0) in
  let q = form_thin_q w betas n in
  (q, r)
