(* PMTBR, Algorithm 1 of the paper:

     1. pick frequency points s_i (a [Sampling.scheme])
     2. z_i = (s_i E - A)^{-1} B
     3. SVD of the weighted, realified sample matrix Z W
     4. keep the left singular vectors whose singular values are significant
     5. reduce by congruence projection with that basis

   The singular values of Z W approximate the Hankel singular values
   (Section III-B) and drive order/error control (Section V-B/C). *)

open Pmtbr_la
open Pmtbr_lti

type result = {
  rom : Dss.t; (* reduced model *)
  basis : Mat.t Lazy.t; (* projection basis V, n x q, lifted when read *)
  singular_values : float array; (* all singular values of ZW, descending *)
  samples : int; (* number of frequency points consumed *)
  stats : Sample_cache.stats; (* counters of the cache the run finished from *)
}

(* Algorithm 1 steps 3-4 in the coordinates of the cache's SVD operand —
   the assembled ZW when it is wide, the small factor R D otherwise (see
   [Sample_cache.svd_operand]): its dominant left singular vectors, and
   all singular values.  The right singular vectors are never formed, and
   the decomposition is the cache's own ([Sample_cache.left_svd]), run
   once per sample set: a re-finish only truncates it. *)
let leading cache ~scale ?order ?tol ?workers () =
  let u, sigma = Sample_cache.left_svd ?workers cache ~scale in
  let q = Tbr.truncation_order ~floor:1e-14 ~sigma ?order ?tol () in
  (Mat.sub_cols u 0 q, sigma)

(* The basis half of a finish, lifted to state space: for callers that
   project elsewhere, such as the hierarchical recombination. *)
let basis_of_cache cache ~scale ?order ?tol ?workers () =
  let u_q, sigma = leading cache ~scale ?order ?tol ?workers () in
  (Sample_cache.lift cache u_q, sigma)

(* The one finish of every sampled PMTBR run (Algorithm 1 steps 3-5):
   the leading vectors, then the congruence projection of the cache's
   pencil onto them — U_q^T (Q^T E Q) U_q is the Galerkin model on
   V = Q U_q, so a tall cache never touches the state dimension here
   (the pencil itself is built once per sample set).  One-shot,
   adaptive, frequency-selective, input-correlated and served runs all
   finish here, so one job gives the same bits on every route.  The
   pencil is the cache's own system projected, so any other [sys] would
   be silently wrong: it is refused.  So is a basis forced after the
   cache has grown: the lift reads the cache as it is then. *)
let of_cache sys cache ~scale ?order ?tol ?workers ~samples () =
  if sys != Sample_cache.system cache then
    invalid_arg "Pmtbr.of_cache: sys is not the system the cache samples";
  let u_q, sigma = leading cache ~scale ?order ?tol ?workers () in
  let columns = Sample_cache.columns cache in
  {
    rom = Dss.project_congruence (Sample_cache.pencil cache) u_q;
    basis =
      lazy
        (if Sample_cache.columns cache <> columns then
           invalid_arg "Pmtbr.result.basis: the cache has grown since the finish";
         Sample_cache.lift cache u_q);
    singular_values = sigma;
    samples;
    stats = Sample_cache.stats cache;
  }

(* A cache holding the controllability samples at every point, each shift
   solved once.  [workers] sizes the shifted-solve domain pool (default:
   all recommended domains; results are identical for any worker count). *)
let sampled ?workers sys (pts : Sampling.point array) =
  if Array.length pts = 0 then invalid_arg "Pmtbr.reduce: no sample points";
  let cache = Sample_cache.create ?workers sys in
  Sample_cache.extend cache pts;
  cache

(* One-shot PMTBR with a fixed point set. *)
let reduce ?order ?tol ?workers sys (pts : Sampling.point array) =
  of_cache sys (sampled ?workers sys pts) ~scale:1.0 ?order ?tol ?workers
    ~samples:(Array.length pts) ()

(* Convenience: uniform sampling of [0, w_max]. *)
let reduce_uniform ?order ?tol ?workers sys ~w_max ~count =
  reduce ?order ?tol ?workers sys (Sampling.points (Sampling.Uniform { w_max }) ~count)

(* ------------------------------------------------------------------ *)
(* On-the-fly order control (Section V-C)                               *)
(* ------------------------------------------------------------------ *)

(* Per-batch monitor: values standing in for the singular values of the
   current weighted prefix, computed from the cache (no re-solve).  The
   SVD monitor yields the singular values themselves, from the same
   operand [of_cache] finishes on; the RRQR monitor the normalised
   pivoted-R diagonal profile of the small factor R D — R's diagonal
   magnitudes are single-column norms whose absolute scale shrinks as
   prefix weights are rescaled, so only the profile d_i / d_0 converges. *)
type monitor = Monitor_svd | Monitor_rrqr

let monitor_values ?workers cache ~monitor ~scale =
  match monitor with
  | Monitor_svd ->
      (* monitoring only compares values across batches (to a few percent)
         and against [tol]; 1e-10 relative accuracy is plenty, and the
         looser sweep threshold is what keeps the per-batch monitor cheap
         next to the solves.  The final decomposition stays full-precision
         in [of_cache]. *)
      Svd.values ?workers ~threshold:1e-10 (Sample_cache.svd_operand cache ~scale)
  | Monitor_rrqr ->
      let { Qr.r; rank; _ } = Qr.pivoted ~tol:1e-15 (Sample_cache.small_factor cache ~scale) in
      let d = Array.init rank (fun i -> Float.abs (Mat.get r i i)) in
      let d0 = if rank > 0 then Float.max d.(0) 1e-300 else 1.0 in
      Array.map (fun x -> x /. d0) d

(* The stopping rule every adaptive loop over a sample cache shares: the
   leading [q] values have converged to [converge_tol] relative change
   against the previous batch's, the tail is below [tol] (skipped for an
   explicitly sized model), and — Section V-B asks for about twice the
   model order in samples before the tail estimate is trusted — the cache
   holds at least 2q realified columns.  Information lives in columns,
   not points: a complex point contributes two per input (it stands for
   its conjugate pair too), a real point one. *)
let settled ?order ?tol ~converge_tol ~columns ~prev sigma =
  let q = Tbr.choose_order ~sigma ?order ?tol () in
  let leading_converged =
    match prev with
    | None -> false
    | Some prev ->
        let k = min q (min (Array.length prev) (Array.length sigma)) in
        let ok = ref (k > 0) in
        for i = 0 to k - 1 do
          let denom = Float.max sigma.(i) 1e-300 in
          if Float.abs (sigma.(i) -. prev.(i)) /. denom > converge_tol then ok := false
        done;
        !ok
  in
  let tail_small =
    match (order, tol) with
    | Some _, None -> true (* explicitly sized model: no tail criterion *)
    | _ ->
        let stop_tol = Option.value tol ~default:1e-10 in
        let smax = Float.max sigma.(0) 1e-300 in
        let tail = ref 0.0 in
        Array.iteri (fun i s -> if i >= q then tail := !tail +. s) sigma;
        !tail <= stop_tol *. smax
  in
  leading_converged && tail_small && columns >= 2 * q

(* The adaptive loop shared by both monitors: consume the point sequence
   in batches through a [Sample_cache] — each shift solved exactly once
   for the whole run — and after each batch compare the monitor values
   with the previous batch's until [settled].  The from-scratch reference
   (a fresh cache per batch, re-solving every consumed shift) lives with
   the test oracles; both run the identical per-column arithmetic in the
   identical order, so their results are bitwise-equal. *)
let adaptive_loop ~monitor ~default_converge ?order ?tol ?(batch = 8) ?converge_tol ?workers sys
    (pts : Sampling.point array) =
  if Array.length pts = 0 then invalid_arg "Pmtbr.reduce_adaptive: no sample points";
  if batch < 1 then invalid_arg "Pmtbr.reduce_adaptive: batch must be >= 1";
  let converge_tol = Option.value converge_tol ~default:default_converge in
  (* prefixes must cover the whole band: consume in bit-reversed order *)
  let pts = Sampling.spread_order pts in
  let n_pts = Array.length pts in
  let cache = Sample_cache.create ?workers sys in
  let rec loop consumed prev =
    let upto = min n_pts (consumed + batch) in
    (* rescale the prefix weights so each batch approximates the same
       integral: otherwise the sampled Gramian (and its singular values)
       would keep growing with the sample count instead of converging.
       The rescaling is a diagonal applied at assembly time, so it costs
       no solves — the cached raw columns never change. *)
    let scale = float_of_int n_pts /. float_of_int upto in
    Sample_cache.extend cache (Array.sub pts consumed (upto - consumed));
    let sigma = monitor_values ?workers cache ~monitor ~scale in
    if
      upto >= n_pts
      || settled ?order ?tol ~converge_tol ~columns:(Sample_cache.columns cache) ~prev sigma
    then of_cache sys cache ~scale ?order ?tol ?workers ~samples:upto ()
    else loop upto (Some sigma)
  in
  loop 0 None

let reduce_adaptive ?order ?tol ?batch ?converge_tol ?workers sys pts =
  adaptive_loop ~monitor:Monitor_svd ~default_converge:0.02 ?order ?tol ?batch ?converge_tol
    ?workers sys pts

(* Variant monitoring convergence with a rank-revealing (column-pivoted)
   QR per batch instead of singular values (Section V-C points out that
   the SVD has no cheap update and suggests RRQR/UTV instead).  The
   stopping criterion is [reduce_adaptive]'s: leading-profile convergence
   alone is not enough — the tail of the normalised R-diagonal profile
   must also be below [tol], so a run cannot stop with an under-resolved
   truncation tail. *)
let reduce_adaptive_rrqr ?order ?tol ?batch ?converge_tol ?workers sys pts =
  adaptive_loop ~monitor:Monitor_rrqr ~default_converge:0.05 ?order ?tol ?batch ?converge_tol
    ?workers sys pts

(* Singular values of the ZW matrix only (Figs. 5 and 8): the values
   [of_cache] would report, from the same operand, without the basis or
   the projection ([Svd.values] matches [Svd.decompose]'s bit for bit at
   its default threshold). *)
let sample_singular_values ?workers sys pts =
  Svd.values ?workers (Sample_cache.svd_operand (sampled ?workers sys pts) ~scale:1.0)

(* Hankel-singular-value estimates.  The sampled Gramian is
   X^ = (1/pi) (ZW)(ZW)^T (the 1/2pi of the inverse Fourier transform and
   the factor 2 from folding the conjugate pair at -j omega into the
   realified columns), so its eigenvalues are sigma(ZW)^2 / pi.  In the
   paper's symmetric case the Hankel singular values are exactly the
   eigenvalues of X (balanced: X = Y = diag(hsv)), hence the estimate. *)
let hankel_estimates ?workers sys pts =
  Array.map (fun s -> s *. s /. Float.pi) (sample_singular_values ?workers sys pts)
