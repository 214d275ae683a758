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
  basis : Mat.t; (* projection basis V, n x q *)
  singular_values : float array; (* all singular values of ZW, descending *)
  samples : int; (* number of frequency points consumed *)
  stats : Sample_cache.stats; (* counters of the cache the run finished from *)
}

(* Truncation order from singular values: keep sigma_i while the *tail sum*
   exceeds [tol] relative to sigma_0 (the TBR-like small-tail criterion of
   Section V-B).  An explicit [order] wins outright (clamped to the number
   of values); only when the caller passes [tol] as well does the tail
   criterion cap it — a *default* tolerance must never shrink a model the
   caller sized explicitly. *)
let choose_order ~(sigma : float array) ?order ?tol () =
  let n = Array.length sigma in
  if n = 0 then 0
  else begin
    (* smallest q with sum_{i>=q} sigma_i <= tol * sigma_0 *)
    let from_tol tol =
      let smax = Float.max sigma.(0) 1e-300 in
      let tail = Array.make (n + 1) 0.0 in
      for i = n - 1 downto 0 do
        tail.(i) <- tail.(i + 1) +. sigma.(i)
      done;
      let rec search q =
        if q >= n then n else if tail.(q) <= tol *. smax then q else search (q + 1)
      in
      max 1 (search 0)
    in
    match (order, tol) with
    | Some q, None -> max 1 (min q n)
    | Some q, Some tol -> max 1 (min q (from_tol tol))
    | None, _ -> from_tol (Option.value tol ~default:1e-10)
  end

(* The one finish of every sampled PMTBR run (Algorithm 1 steps 3-5),
   from a cache's columns: SVD the cache's operand — the assembled ZW when
   it is wide, the small factor R D otherwise (see
   [Sample_cache.svd_operand]) — keep the dominant left singular vectors,
   lift them to state space, and project.  One-shot, adaptive,
   frequency-selective, input-correlated, hierarchical and served runs
   all finish here, so one job gives the same bits on every route. *)
let of_cache sys cache ~scale ?order ?tol ?workers ~samples () =
  let { Svd.u; sigma; _ } = Svd.decompose ?workers (Sample_cache.svd_operand cache ~scale) in
  let q = choose_order ~sigma ?order ?tol () in
  (* never keep directions below numerical noise *)
  let q =
    let smax = Float.max sigma.(0) 1e-300 in
    let rec cap k = if k <= 1 then 1 else if sigma.(k - 1) > 1e-14 *. smax then k else cap (k - 1) in
    cap q
  in
  let basis = Sample_cache.lift cache (Mat.sub_cols u 0 q) in
  {
    rom = Dss.project_congruence sys basis;
    basis;
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
  let q = choose_order ~sigma ?order ?tol () in
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
   with the previous batch's until [settled].

   [rebuild] selects the reference from-scratch path: a fresh cache per
   batch, re-solving every consumed shift — exactly what this loop did
   before the cache existed.  It is kept as the benchmark baseline and the
   oracle for the incremental == from-scratch equivalence tests; both
   paths run the identical per-column arithmetic in the identical order,
   so their results are bitwise-equal. *)
let adaptive_loop ~monitor ~default_converge ?(rebuild = false) ?order ?tol ?(batch = 8)
    ?converge_tol ?workers sys (pts : Sampling.point array) =
  if Array.length pts = 0 then invalid_arg "Pmtbr.reduce_adaptive: no sample points";
  if batch < 1 then invalid_arg "Pmtbr.reduce_adaptive: batch must be >= 1";
  let converge_tol = Option.value converge_tol ~default:default_converge in
  (* prefixes must cover the whole band: consume in bit-reversed order *)
  let pts = Sampling.spread_order pts in
  let n_pts = Array.length pts in
  let cache = ref (Sample_cache.create ?workers sys) in
  (* counters of caches discarded by the rebuild path, folded into the
     final stats so they reflect the whole run *)
  let discarded = ref None in
  let discard c =
    let st = Sample_cache.stats c in
    discarded :=
      Some (match !discarded with None -> st | Some acc -> Sample_cache.merge_stats acc st)
  in
  let finish upto =
    let scale = float_of_int n_pts /. float_of_int upto in
    let result = of_cache sys !cache ~scale ?order ?tol ?workers ~samples:upto () in
    match !discarded with
    | None -> result
    | Some acc ->
        (* held points and columns are the final cache's, not a sum *)
        let last = result.stats in
        let st = Sample_cache.merge_stats acc last in
        {
          result with
          stats =
            { st with Sample_cache.points = last.Sample_cache.points; columns = last.columns };
        }
  in
  let rec loop consumed prev =
    let upto = min n_pts (consumed + batch) in
    (* rescale the prefix weights so each batch approximates the same
       integral: otherwise the sampled Gramian (and its singular values)
       would keep growing with the sample count instead of converging.
       The rescaling is a diagonal applied at assembly time, so it costs
       no solves — the cached raw columns never change. *)
    let scale = float_of_int n_pts /. float_of_int upto in
    if rebuild then begin
      discard !cache;
      cache := Sample_cache.create ?workers sys;
      Sample_cache.extend !cache (Array.sub pts 0 upto)
    end
    else Sample_cache.extend !cache (Array.sub pts consumed (upto - consumed));
    let sigma = monitor_values ?workers !cache ~monitor ~scale in
    if
      upto >= n_pts
      || settled ?order ?tol ~converge_tol ~columns:(Sample_cache.columns !cache) ~prev sigma
    then finish upto
    else loop upto (Some sigma)
  in
  loop 0 None

let reduce_adaptive ?rebuild ?order ?tol ?batch ?converge_tol ?workers sys pts =
  adaptive_loop ~monitor:Monitor_svd ~default_converge:0.02 ?rebuild ?order ?tol ?batch
    ?converge_tol ?workers sys pts

(* Variant monitoring convergence with a rank-revealing (column-pivoted)
   QR per batch instead of singular values (Section V-C points out that
   the SVD has no cheap update and suggests RRQR/UTV instead).  The
   stopping criterion is [reduce_adaptive]'s: leading-profile convergence
   alone is not enough — the tail of the normalised R-diagonal profile
   must also be below [tol], so a run cannot stop with an under-resolved
   truncation tail. *)
let reduce_adaptive_rrqr ?rebuild ?order ?tol ?batch ?converge_tol ?workers sys pts =
  adaptive_loop ~monitor:Monitor_rrqr ~default_converge:0.05 ?rebuild ?order ?tol ?batch
    ?converge_tol ?workers sys pts

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
