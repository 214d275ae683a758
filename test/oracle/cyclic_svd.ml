(* The serial cyclic-Jacobi SVD that [Svd] replaced with the round-robin
   schedule: the fixed (p, q) sweep order, no QR preconditioning.  The
   two orders apply the identical rotation arithmetic to the same pairs,
   only in a different sequence, so their singular values agree to the
   sweep threshold's relative accuracy — [test_par_kernel] pins 1e-12,
   and [bench/dense_bench] times its speedup gate against [decompose]
   here. *)

open Pmtbr_la

let max_sweeps = 60

(* One cyclic-Jacobi run over columns [w] (each length [m]), optionally
   accumulating the right-hand rotations into [v] (each length [n]).
   Rotations stop when every column pair is orthogonal to [threshold]
   relative accuracy; Hestenes' method then has each singular value to
   roughly that same *relative* accuracy, large and tiny alike. *)
let jacobi_core ~threshold ~(w : float array array) ~(v : float array array option) m n =
  let converged = ref false in
  let sweeps = ref 0 in
  while (not !converged) && !sweeps < max_sweeps do
    incr sweeps;
    converged := true;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let wp = w.(p) and wq = w.(q) in
        (* alpha = w_p . w_p, beta = w_q . w_q, gamma = w_p . w_q *)
        let alpha = ref 0.0 and beta = ref 0.0 and gamma = ref 0.0 in
        for i = 0 to m - 1 do
          let a = Array.unsafe_get wp i and b = Array.unsafe_get wq i in
          alpha := !alpha +. (a *. a);
          beta := !beta +. (b *. b);
          gamma := !gamma +. (a *. b)
        done;
        let alpha = !alpha and beta = !beta and gamma = !gamma in
        if Float.abs gamma > threshold *. sqrt (alpha *. beta) && gamma <> 0.0 then begin
          converged := false;
          let zeta = (beta -. alpha) /. (2.0 *. gamma) in
          let t =
            (* tan of the rotation angle, the root of smaller magnitude *)
            let s = if zeta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs zeta +. sqrt (1.0 +. (zeta *. zeta)))
          in
          let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
          let s = c *. t in
          for i = 0 to m - 1 do
            let a = Array.unsafe_get wp i and b = Array.unsafe_get wq i in
            Array.unsafe_set wp i ((c *. a) -. (s *. b));
            Array.unsafe_set wq i ((s *. a) +. (c *. b))
          done;
          match v with
          | None -> ()
          | Some v ->
              let vp = v.(p) and vq = v.(q) in
              for i = 0 to n - 1 do
                let a = Array.unsafe_get vp i and b = Array.unsafe_get vq i in
                Array.unsafe_set vp i ((c *. a) -. (s *. b));
                Array.unsafe_set vq i ((s *. a) +. (c *. b))
              done
        end
      done
    done
  done

let columns_of (a : Mat.t) = Array.init a.Mat.cols (fun j -> Mat.col a j)

(* Descending order of the column norms. *)
let sort_order (sigma : float array) =
  let order = Array.init (Array.length sigma) (fun j -> j) in
  Array.sort (fun i j -> compare sigma.(j) sigma.(i)) order;
  order

(* Core routine for m >= n. *)
let jacobi_tall (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  let w = columns_of a in
  let v = Array.init n (fun j -> Array.init n (fun i -> if i = j then 1.0 else 0.0)) in
  jacobi_core ~threshold:1e-15 ~w ~v:(Some v) m n;
  let sigma = Array.map Vec.norm2 w in
  let order = sort_order sigma in
  let u = Mat.create m n and vs = Mat.create n n in
  Array.iteri
    (fun jnew jold ->
      let s = sigma.(jold) in
      Mat.set_col u jnew (if s > 0.0 then Vec.scale (1.0 /. s) w.(jold) else w.(jold));
      Mat.set_col vs jnew v.(jold))
    order;
  { Svd.u; sigma = Array.map (fun j -> sigma.(j)) order; v = vs }

let decompose (a : Mat.t) =
  if a.Mat.rows >= a.Mat.cols then jacobi_tall a
  else begin
    let { Svd.u; sigma; v } = jacobi_tall (Mat.transpose a) in
    { Svd.u = v; sigma; v = u }
  end

(* Singular values only; matches [decompose] bit for bit at the default
   threshold. *)
let values ?(threshold = 1e-15) (a : Mat.t) =
  let a = if a.Mat.rows >= a.Mat.cols then a else Mat.transpose a in
  let m = a.Mat.rows and n = a.Mat.cols in
  let w = columns_of a in
  jacobi_core ~threshold ~w ~v:None m n;
  let sigma = Array.map Vec.norm2 w in
  Array.map (fun j -> sigma.(j)) (sort_order sigma)
