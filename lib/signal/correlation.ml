(* Input-correlation estimation (paper Section IV-C): from a p x N matrix of
   input samples U, estimate K = U U^T / N, or equivalently work with the SVD
   of U directly (K = V S^2 V^T / N). *)

open Pmtbr_la

(* Sample correlation matrix K_ij = (1/N) sum_l u_i^l u_j^l. *)
let correlation_matrix (u : Mat.t) =
  let n = u.Mat.cols in
  Mat.scale (1.0 /. float_of_int n) (Mat.mul u (Mat.transpose u))

type input_basis = {
  directions : Mat.t; (* V_K: p x r, orthonormal input directions *)
  sigmas : float array; (* singular values of U / sqrt N, descending *)
}

(* SVD of the sample matrix, normalised so that sigmas^2 are the eigenvalues
   of the correlation matrix. *)
let analyse (u : Mat.t) =
  let n = float_of_int u.Mat.cols in
  let vk, sigma = Svd.left u in
  { directions = vk; sigmas = Array.map (fun s -> s /. sqrt n) sigma }

(* Keep directions with sigma above tol * sigma_max. *)
let truncate ?(tol = 1e-8) { directions; sigmas } =
  let smax = if Array.length sigmas = 0 then 0.0 else sigmas.(0) in
  let r = ref 0 in
  Array.iter (fun s -> if s > tol *. smax then incr r) sigmas;
  let r = max 1 !r in
  { directions = Mat.sub_cols directions 0 r; sigmas = Array.sub sigmas 0 r }

(* Draw a random port-space vector r ~ N(0, diag(sigmas)^2) mapped through
   the input directions: B_eff = B V_K r (Algorithm 3, steps 3/5). *)
let draw_direction ~rng { directions; sigmas } =
  let r = Array.map (fun s -> s *. Rng.gaussian rng) sigmas in
  Mat.mv directions r
