(* Input-correlated TBR (Algorithm 3): when the port inputs are correlated,
   the effective Gramian is A X + X A^T + B K B^T = 0 with K the input
   correlation matrix.  Instead of forming K, the input sample matrix U is
   SVD'd (U = V_K S_K U_K^T) and each frequency sample is taken against a
   random input direction B V_K r with r ~ N(0, S_K^2): the sampled Gramian
   then converges to the K-weighted one.

   Both variants run through the shared [Sample_cache] pipeline — the
   random-draw path on a [Per_point] source (one right-hand side per
   draw), the deterministic path on a [Fixed_rhs] source — so every shift
   is solved exactly once per run through one symbolic analysis, every
   run finishes through [Pmtbr.of_cache] with its counters in the result,
   and the adaptive draws-loop monitors order from the cache's SVD
   operand. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_signal

type result = {
  rom : Dss.t;
  basis : Mat.t;
  singular_values : float array;
  input_rank : int; (* retained input directions *)
  samples : int;
  stats : Sample_cache.stats;
}

let of_pmtbr ~input_rank (r : Pmtbr.result) =
  {
    rom = r.Pmtbr.rom;
    basis = r.Pmtbr.basis;
    singular_values = r.Pmtbr.singular_values;
    input_rank;
    samples = r.Pmtbr.samples;
    stats = r.Pmtbr.stats;
  }

(* One sampled direction (Algorithm 3 steps 3/5): frequency point [k mod
   n_pts] paired with the random input image B V_K r.  The rhs is the
   single mat-vec B * dir — no per-row extraction. *)
let draw ~rng ~(basis : Correlation.input_basis) ~(b : Mat.t) (points : Sampling.point array) k =
  let p = points.(k mod Array.length points) in
  let dir = Correlation.draw_direction ~rng basis in
  let bd = Mat.mv b dir in
  (p, Mat.init (Array.length bd) 1 (fun i _ -> bd.(i)))

(* The rng stream is consumed strictly in draw order (an explicit loop:
   [Array.init]'s evaluation order is unspecified), so batching the draws
   leaves the stream — and hence the sampled columns — unchanged. *)
let draw_block ~rng ~basis ~b points ~from ~count =
  if count = 0 then [||]
  else begin
    let out = Array.make count (draw ~rng ~basis ~b points from) in
    for i = 1 to count - 1 do
      out.(i) <- draw ~rng ~basis ~b points (from + i)
    done;
    out
  end

let analyse_inputs sys ~input_tol (inputs : Mat.t) =
  if inputs.Mat.rows <> Dss.inputs sys then
    invalid_arg
      (Printf.sprintf "Input_correlated: %d input-sample rows for a %d-port system"
         inputs.Mat.rows (Dss.inputs sys));
  Correlation.truncate ~tol:input_tol (Correlation.analyse inputs)

(* [reduce sys ~inputs ~points ~draws] runs Algorithm 3:
   [inputs] is the p x N matrix of sampled input waveforms; [points] the
   frequency points to cycle through; [draws] the number of sample vectors
   (each pairs one frequency point with one random input direction). *)
let reduce ?order ?tol ?(input_tol = 1e-6) ?(seed = 2004) ?workers sys ~(inputs : Mat.t)
    ~(points : Sampling.point array) ~draws =
  if Array.length points = 0 then invalid_arg "Input_correlated.reduce: no points";
  if draws < 1 then invalid_arg "Input_correlated.reduce: draws must be >= 1";
  let rng = Rng.create seed in
  let basis = analyse_inputs sys ~input_tol inputs in
  let b = Dss.b_matrix sys in
  let cache = Sample_cache.create ?workers ~source:Sample_cache.Per_point sys in
  Sample_cache.extend_rhs cache (draw_block ~rng ~basis ~b points ~from:0 ~count:draws);
  of_pmtbr ~input_rank:basis.Correlation.directions.Mat.cols
    (Pmtbr.of_cache sys cache ~scale:1.0 ?order ?tol ?workers ~samples:draws ())

(* ------------------------------------------------------------------ *)
(* Adaptive draws-loop                                                 *)
(* ------------------------------------------------------------------ *)

(* On-the-fly order control over the Monte Carlo draw count: consume the
   draw sequence in batches through the cache, rescale the held prefix by
   [max_draws / consumed] at assembly (a diagonal — no re-solve) so every
   batch estimates the same K-weighted Gramian, and stop when the leading
   singular values of the small factor converge, the tail is below [tol],
   and the sample block holds at least twice the model order in columns
   (the Section V-B budget guard).  Batch boundaries and worker counts
   leave no trace: the rng stream is consumed in draw order and the cache
   is batch-invariant, so results are bitwise-independent of both. *)
let reduce_adaptive ?order ?tol ?(input_tol = 1e-6) ?(seed = 2004) ?(batch = 8)
    ?(converge_tol = 0.02) ?workers sys ~(inputs : Mat.t) ~(points : Sampling.point array)
    ~max_draws =
  if Array.length points = 0 then invalid_arg "Input_correlated.reduce_adaptive: no points";
  if max_draws < 1 then invalid_arg "Input_correlated.reduce_adaptive: max_draws must be >= 1";
  if batch < 1 then invalid_arg "Input_correlated.reduce_adaptive: batch must be >= 1";
  let rng = Rng.create seed in
  let basis = analyse_inputs sys ~input_tol inputs in
  let b = Dss.b_matrix sys in
  let cache = Sample_cache.create ?workers ~source:Sample_cache.Per_point sys in
  let rec loop consumed prev =
    let upto = min max_draws (consumed + batch) in
    Sample_cache.extend_rhs cache
      (draw_block ~rng ~basis ~b points ~from:consumed ~count:(upto - consumed));
    let scale = float_of_int max_draws /. float_of_int upto in
    (* monitoring compares values across batches to a few percent; the
       loose sweep threshold keeps the per-batch monitor cheap *)
    let sigma = Svd.values ~threshold:1e-10 (Sample_cache.svd_operand cache ~scale) in
    if
      upto >= max_draws
      || Pmtbr.settled ?order ?tol ~converge_tol ~columns:(Sample_cache.columns cache) ~prev
           sigma
    then
      of_pmtbr ~input_rank:basis.Correlation.directions.Mat.cols
        (Pmtbr.of_cache sys cache ~scale ?order ?tol ~samples:upto ())
    else loop upto (Some sigma)
  in
  loop 0 None

(* ------------------------------------------------------------------ *)
(* Deterministic variant                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic variant: instead of random draws, use the leading input
   directions themselves, scaled by their singular values, at every
   frequency point.  Cheaper and reproducible; used for the large substrate
   experiments. *)
let reduce_deterministic ?order ?tol ?(input_tol = 1e-6) ?(directions = 0) ?workers sys
    ~(inputs : Mat.t) ~(points : Sampling.point array) =
  if Array.length points = 0 then invalid_arg "Input_correlated.reduce_deterministic: no points";
  let basis = analyse_inputs sys ~input_tol inputs in
  let dirs = basis.Correlation.directions in
  let r_in = if directions > 0 then min directions dirs.Mat.cols else dirs.Mat.cols in
  let b = Dss.b_matrix sys in
  (* rhs = B * (V_K S_K) restricted to the leading directions *)
  let rhs =
    Mat.mul b
      (Mat.init dirs.Mat.rows r_in (fun i j -> Mat.get dirs i j *. basis.Correlation.sigmas.(j)))
  in
  let cache = Sample_cache.create ?workers ~source:(Sample_cache.Fixed_rhs rhs) sys in
  Sample_cache.extend cache points;
  of_pmtbr ~input_rank:r_in
    (Pmtbr.of_cache sys cache ~scale:1.0 ?order ?tol ?workers ~samples:(Array.length points) ())
