(* Tests for the unified sample-source pipeline: each cache source
   assembles bitwise-identically to its retained Zmat one-shot reference,
   the cached variants (cross-Gramian, input-correlated, multipoint)
   reproduce their pre-cache pipelines, the merged PMTBR finish matches
   the oracle's state-dimension finish, the adaptive loops are batch- and
   worker-invariant, and regressions for the satellite fixes (Time_sampled
   snapshot selection, Error_est.curve). *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_signal
open Pmtbr_core
open Pmtbr_oracle

let mesh_system ~rows ~cols ~ports = Dss.of_netlist (Rc_mesh.generate ~rows ~cols ~ports ())

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* Extend a cache in chunks of [batch] to exercise batch boundaries. *)
let extend_batched cache (pts : Sampling.point array) ~batch =
  let n = Array.length pts in
  let consumed = ref 0 in
  while !consumed < n do
    let k = min batch (n - !consumed) in
    Sample_cache.extend cache (Array.sub pts !consumed k);
    consumed := !consumed + k
  done

let extend_rhs_batched cache (entries : (Sampling.point * Mat.t) array) ~batch =
  let n = Array.length entries in
  let consumed = ref 0 in
  while !consumed < n do
    let k = min batch (n - !consumed) in
    Sample_cache.extend_rhs cache (Array.sub entries !consumed k);
    consumed := !consumed + k
  done

(* A deterministic non-trivial fixed right-hand side for a system. *)
let make_rhs sys ~cols =
  let n = Dss.order sys in
  Mat.init n cols (fun i j -> sin (float_of_int ((i + 1) * (j + 2))) /. float_of_int (n + j + 1))

(* Per-point right-hand sides derived from the rng stream. *)
let make_per_point sys (pts : Sampling.point array) ~seed =
  let rng = Rng.create seed in
  let n = Dss.order sys in
  Array.map
    (fun p ->
      let col = Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      (p, Mat.init n 1 (fun i _ -> col.(i))))
    pts

(* ------------------------------------------------------------------ *)
(* Cache sources vs their Zmat one-shot references (bitwise)           *)
(* ------------------------------------------------------------------ *)

let prop_fixed_rhs_matches_zmat =
  QCheck2.Test.make ~name:"Fixed_rhs source == Zmat.build_rhs (bitwise)" ~count:8
    QCheck2.Gen.(tup4 (int_range 3 5) (int_range 3 9) (int_range 1 4) (int_range 1 3))
    (fun (dim, npts, batch, rhs_cols) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:npts in
      let rhs = make_rhs sys ~cols:rhs_cols in
      let cache = Sample_cache.create ~workers:1 ~source:(Sample_cache.Fixed_rhs rhs) sys in
      extend_batched cache pts ~batch;
      bitwise_equal (Sample_cache.assemble cache ~scale:1.0) (Zmat.build_rhs ~workers:1 sys ~rhs pts))

let prop_observability_matches_zmat =
  QCheck2.Test.make ~name:"Observability source == Zmat.build_left (bitwise)" ~count:8
    QCheck2.Gen.(tup4 (int_range 3 5) (int_range 3 9) (int_range 1 4) (int_range 1 3))
    (fun (dim, npts, batch, workers) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e10 }) ~count:npts in
      let cache =
        Sample_cache.create ~workers ~oversubscribe:true ~source:Sample_cache.Observability sys
      in
      extend_batched cache pts ~batch;
      bitwise_equal (Sample_cache.assemble cache ~scale:1.0) (Zmat.build_left ~workers:1 sys pts))

let prop_per_point_matches_zmat =
  QCheck2.Test.make ~name:"Per_point source == Zmat.build_per_point (bitwise)" ~count:8
    QCheck2.Gen.(tup4 (int_range 3 5) (int_range 3 9) (int_range 1 4) (int_range 2 4))
    (fun (dim, npts, batch, workers) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:npts in
      let entries = make_per_point sys pts ~seed:(dim + npts) in
      let cache =
        Sample_cache.create ~workers ~oversubscribe:true ~source:Sample_cache.Per_point sys
      in
      extend_rhs_batched cache entries ~batch;
      bitwise_equal
        (Sample_cache.assemble cache ~scale:1.0)
        (Zmat.build_per_point ~workers:1 sys (Array.to_list entries)))

(* ------------------------------------------------------------------ *)
(* Cross-Gramian: compressed pencil vs dense reference                 *)
(* ------------------------------------------------------------------ *)

let leading_mags evs =
  let m = Array.map Complex.norm evs in
  Array.sort (fun a b -> compare b a) m;
  m

let test_cross_compressed_matches_dense () =
  let sys = mesh_system ~rows:7 ~cols:7 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:12 in
  let dense = Dense.cross_gramian ~order:8 ~workers:1 sys pts in
  let cached = Cross_gramian.reduce ~order:8 ~workers:1 sys pts in
  let st = cached.Cross_gramian.stats in
  Alcotest.(check int) "solves == points" st.Sample_cache.points st.Sample_cache.solves;
  Alcotest.(check int) "one solve per point per side" (2 * Array.length pts)
    st.Sample_cache.solves;
  Alcotest.(check int) "same model order" dense.Cross_gramian.basis.Mat.cols
    cached.Cross_gramian.basis.Mat.cols;
  let md = leading_mags dense.Cross_gramian.eigenvalues in
  let mc = leading_mags cached.Cross_gramian.eigenvalues in
  let magmax = Float.max md.(0) 1e-300 in
  for i = 0 to min 7 (min (Array.length md) (Array.length mc) - 1) do
    if Float.abs (md.(i) -. mc.(i)) /. magmax > 1e-8 then
      Alcotest.failf "pencil eigenvalue %d disagrees: dense %g vs compressed %g" i md.(i) mc.(i)
  done;
  (* the two bases must span the same dominant subspace: projecting one
     onto the other loses (almost) nothing *)
  let d = dense.Cross_gramian.basis and c = cached.Cross_gramian.basis in
  let proj = Mat.mul (Mat.transpose d) c in
  let frob m = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 m.Mat.data) in
  let lost = Float.abs (frob proj -. sqrt (float_of_int c.Mat.cols)) in
  if lost > 1e-6 then Alcotest.failf "bases span different subspaces (defect %g)" lost

let prop_cross_adaptive_invariant =
  QCheck2.Test.make ~name:"adaptive cross-Gramian batch/worker-invariant (bitwise)" ~count:6
    QCheck2.Gen.(tup3 (int_range 3 5) (int_range 2 7) (int_range 2 4))
    (fun (dim, batch, workers) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:10 in
      (* converge_tol < 0 never converges, forcing full consumption so
         every batch split ends on the same sample set *)
      let run ~batch ~workers =
        Cross_gramian.reduce_adaptive ~batch ~converge_tol:(-1.0) ~workers sys pts
      in
      let reference = run ~batch:3 ~workers:1 in
      let other = run ~batch ~workers in
      reference.Cross_gramian.samples = other.Cross_gramian.samples
      && bitwise_equal reference.Cross_gramian.basis other.Cross_gramian.basis)

(* ------------------------------------------------------------------ *)
(* Input-correlated: cache pipeline vs inline Zmat reference           *)
(* ------------------------------------------------------------------ *)

let correlated_fixture ~ports ~seed =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports in
  let bank = Waveform.dithered_square_bank ~rng:(Rng.create seed) ~ports ~period:1e-9 ~dither:0.1 in
  let waves = Array.map (fun w t -> 1e-3 *. w t) bank in
  let inputs = Waveform.sample_matrix waves ~t0:0.0 ~t1:4e-9 ~samples:200 in
  let points = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:6 in
  (sys, inputs, points)

(* Replicate the draw sequence of [Input_correlated.reduce] through the
   public signal API and push it through the retained one-shot reference
   path; the cache pipeline must match bitwise. *)
let test_correlated_matches_reference () =
  let sys, inputs, points = correlated_fixture ~ports:4 ~seed:3 in
  let seed = 17 and draws = 15 in
  let r = Input_correlated.reduce ~order:10 ~seed ~workers:1 sys ~inputs ~points ~draws in
  let rng = Rng.create seed in
  let basis = Correlation.truncate ~tol:1e-6 (Correlation.analyse inputs) in
  let b = Dss.b_matrix sys in
  let entries =
    let out = ref [] in
    for k = 0 to draws - 1 do
      let p = points.(k mod Array.length points) in
      let bd = Mat.mv b (Correlation.draw_direction ~rng basis) in
      out := (p, Mat.init (Array.length bd) 1 (fun i _ -> bd.(i))) :: !out
    done;
    List.rev !out
  in
  let zw = Zmat.build_per_point ~workers:1 sys entries in
  let reference = Dense.pmtbr_finish sys ~zw ~order:10 () in
  Alcotest.(check bool) "basis == one-shot reference (bitwise)" true
    (bitwise_equal r.Input_correlated.basis reference.Dense.basis);
  Alcotest.(check bool) "singular values identical" true
    (r.Input_correlated.singular_values = reference.Dense.singular_values)

let test_deterministic_matches_reference () =
  let sys, inputs, points = correlated_fixture ~ports:4 ~seed:9 in
  let r =
    Input_correlated.reduce_deterministic ~order:10 ~workers:1 sys ~inputs ~points
  in
  let st = r.Input_correlated.stats in
  Alcotest.(check int) "solves == points" st.Sample_cache.points st.Sample_cache.solves;
  Alcotest.(check int) "one solve per frequency point" (Array.length points)
    st.Sample_cache.solves;
  let basis = Correlation.truncate ~tol:1e-6 (Correlation.analyse inputs) in
  let dirs = basis.Correlation.directions in
  let rhs =
    Mat.mul (Dss.b_matrix sys)
      (Mat.init dirs.Mat.rows dirs.Mat.cols
         (fun i j -> Mat.get dirs i j *. basis.Correlation.sigmas.(j)))
  in
  let zw = Zmat.build_rhs ~workers:1 sys ~rhs points in
  let reference = Dense.pmtbr_finish sys ~zw ~order:10 () in
  Alcotest.(check bool) "basis == one-shot reference (bitwise)" true
    (bitwise_equal r.Input_correlated.basis reference.Dense.basis)

let prop_correlated_adaptive_invariant =
  QCheck2.Test.make ~name:"adaptive input-correlated batch/worker-invariant (bitwise)" ~count:6
    QCheck2.Gen.(tup2 (int_range 2 7) (int_range 2 4))
    (fun (batch, workers) ->
      let sys, inputs, points = correlated_fixture ~ports:4 ~seed:5 in
      let run ~batch ~workers =
        Input_correlated.reduce_adaptive ~seed:23 ~batch ~converge_tol:(-1.0) ~workers sys
          ~inputs ~points ~max_draws:14
      in
      let reference = run ~batch:3 ~workers:1 in
      let other = run ~batch ~workers in
      let st_ref = reference.Input_correlated.stats and st = other.Input_correlated.stats in
      st_ref.Sample_cache.solves = st_ref.Sample_cache.points
      && st.Sample_cache.solves = st.Sample_cache.points
      && reference.Input_correlated.samples = other.Input_correlated.samples
      && bitwise_equal reference.Input_correlated.basis other.Input_correlated.basis)

(* ------------------------------------------------------------------ *)
(* Multipoint and plain PMTBR through the cache                         *)
(* ------------------------------------------------------------------ *)

let test_multipoint_stats () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:8 in
  let r = Multipoint.reduce ~workers:1 sys pts ~count:5 in
  let st = r.Multipoint.stats in
  Alcotest.(check int) "solves == points" st.Sample_cache.points st.Sample_cache.solves;
  Alcotest.(check int) "count points consumed" 5 st.Sample_cache.points;
  Alcotest.(check int) "samples reported" 5 r.Multipoint.samples;
  Alcotest.check_raises "count out of range"
    (Invalid_argument "Multipoint.reduce: count 9 out of range [1, 8]") (fun () ->
      ignore (Multipoint.reduce ~workers:1 sys pts ~count:9))

let test_pmtbr_stats () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:10 in
  let direct = Dense.pmtbr_finish sys ~zw:(Zmat.build ~workers:1 sys pts) ~order:8 () in
  let cached = Pmtbr.reduce ~order:8 ~workers:1 sys pts in
  let st = cached.Pmtbr.stats in
  Alcotest.(check int) "solves == points" st.Sample_cache.points st.Sample_cache.solves;
  Alcotest.(check int) "all points solved" (Array.length pts) st.Sample_cache.solves;
  Alcotest.(check int) "same model order" (Dss.order direct.Dense.rom)
    (Dss.order cached.Pmtbr.rom);
  (* the state-dimension SVD returns min(n, cols) values, a tall cache's
     small factor all cols; the shared prefix must agree *)
  let sd = direct.Dense.singular_values and sc = cached.Pmtbr.singular_values in
  let smax = Float.max sd.(0) 1e-300 in
  for i = 0 to min (Array.length sd) (Array.length sc) - 1 do
    if Float.abs (sd.(i) -. sc.(i)) /. smax > 1e-10 then
      Alcotest.failf "singular value %d drifts: %g vs %g" i sd.(i) sc.(i)
  done

(* The merged finish against the state-dimension one it replaced: on a
   wide cache (more columns than states) [Pmtbr.of_cache] SVDs the
   assembled ZW exactly as the old finish did, so the ROMs are bitwise
   equal; on a tall one it reaches the same subspace through the c x c
   factor, so singular values agree to roundoff at the sigma_0 scale
   and the in-band transfer functions to roundoff at the response
   scale. *)
let prop_finish_pins_state_dimension =
  QCheck2.Test.make ~name:"merged finish == state-dimension finish (mesh, substrate)" ~count:12
    QCheck2.Gen.(
      tup4 bool (int_range 2 8) (pair (int_range 2 8) (int_range 1 4)) (int_range 0 999))
    (fun (substrate, npts, (dim, ports), seed) ->
      let sys, w_max =
        if substrate then
          ( Dss.of_netlist (Substrate.generate ~ports:(2 * ports) ~internal:(4 * dim) ~seed ()),
            4.0 *. Substrate.corner_frequency () )
        else (mesh_system ~rows:dim ~cols:(dim + 1) ~ports, 1e10)
      in
      let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:npts in
      let merged = Pmtbr.reduce ~tol:1e-9 ~workers:1 sys pts in
      let dense = Dense.pmtbr_finish sys ~zw:(Zmat.build ~workers:1 sys pts) ~tol:1e-9 () in
      let sm = merged.Pmtbr.singular_values and sd = dense.Dense.singular_values in
      let s0 = sd.(0) in
      for i = 0 to min (Array.length sm) (Array.length sd) - 1 do
        if Float.abs (sm.(i) -. sd.(i)) > 1e-12 *. s0 then
          QCheck2.Test.fail_reportf "sigma %d: %.17g vs %.17g" i sm.(i) sd.(i)
      done;
      let q = Dss.order merged.Pmtbr.rom in
      if q <> Dss.order dense.Dense.rom then
        QCheck2.Test.fail_reportf "order %d vs %d" q (Dss.order dense.Dense.rom);
      if merged.Pmtbr.stats.Sample_cache.columns > Dss.order sys then
        bitwise_equal merged.Pmtbr.basis dense.Dense.basis
      else begin
        let om = Vec.linspace (w_max /. 100.0) w_max 15 in
        let err = Freq.max_rel_error (Freq.sweep dense.Dense.rom om) (Freq.sweep merged.Pmtbr.rom om) in
        if err > 1e-10 then QCheck2.Test.fail_reportf "tall ROMs differ in band: %.3e" err;
        true
      end)

(* ------------------------------------------------------------------ *)
(* Satellite regressions: Error_est.curve and Time_sampled             *)
(* ------------------------------------------------------------------ *)

(* The O(n) reverse cumulative sum must match the old per-order summation
   (to roundoff: the summation order changed). *)
let prop_error_curve_matches_quadratic =
  QCheck2.Test.make ~name:"Error_est.curve == per-order tail sums" ~count:50
    QCheck2.Gen.(list_size (int_range 1 60) (float_range 0.0 10.0))
    (fun values ->
      let sigma = Array.of_list (List.sort (fun a b -> compare b a) values) in
      let n = Array.length sigma in
      let curve = Error_est.curve sigma in
      let ok = ref (Array.length curve = n + 1) in
      for q = 0 to n do
        let tail = ref 0.0 in
        for i = q to n - 1 do
          tail := !tail +. sigma.(i)
        done;
        let expect = 2.0 *. !tail in
        let denom = Float.max (Float.abs expect) 1e-300 in
        if Float.abs (curve.(q) -. expect) /. denom > 1e-12 && expect > 0.0 then ok := false;
        if expect = 0.0 && curve.(q) <> 0.0 then ok := false
      done;
      !ok)

let test_time_sampled_snapshot_count () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:10 ()) in
  let u _ = [| 1e-3 |] in
  let r = Time_sampled.reduce ~order:4 sys ~u ~t1:10e-9 ~dt:0.05e-9 ~snapshots:23 in
  Alcotest.(check int) "keeps exactly the requested count" 23 r.Time_sampled.snapshots;
  (* more snapshots than steps: clamped to the step count *)
  let r = Time_sampled.reduce ~order:4 sys ~u ~t1:0.5e-9 ~dt:0.1e-9 ~snapshots:100 in
  Alcotest.(check bool) "clamped to steps" true (r.Time_sampled.snapshots <= 7)

let test_time_sampled_invalid_args () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:5 ()) in
  let u _ = [| 1e-3 |] in
  Alcotest.check_raises "snapshots < 2"
    (Invalid_argument "Time_sampled.reduce: snapshots must be >= 2") (fun () ->
      ignore (Time_sampled.reduce sys ~u ~t1:1e-9 ~dt:0.1e-9 ~snapshots:1));
  Alcotest.check_raises "dt > t1" (Invalid_argument "Time_sampled.reduce: need 0 < dt <= t1")
    (fun () -> ignore (Time_sampled.reduce sys ~u ~t1:1e-9 ~dt:2e-9 ~snapshots:10));
  Alcotest.check_raises "dt <= 0" (Invalid_argument "Time_sampled.reduce: need 0 < dt <= t1")
    (fun () -> ignore (Time_sampled.reduce sys ~u ~t1:1e-9 ~dt:0.0 ~snapshots:10))

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pmtbr_variants"
    [
      ( "cache_sources",
        qsuite
          [
            prop_fixed_rhs_matches_zmat;
            prop_observability_matches_zmat;
            prop_per_point_matches_zmat;
          ] );
      ( "cross_gramian",
        Alcotest.test_case "compressed matches dense" `Quick test_cross_compressed_matches_dense
        :: qsuite [ prop_cross_adaptive_invariant ] );
      ( "input_correlated",
        Alcotest.test_case "cache matches one-shot reference" `Quick
          test_correlated_matches_reference
        :: Alcotest.test_case "deterministic matches reference" `Quick
             test_deterministic_matches_reference
        :: qsuite [ prop_correlated_adaptive_invariant ] );
      ( "cache_stats",
        [
          Alcotest.test_case "multipoint counters" `Quick test_multipoint_stats;
          Alcotest.test_case "pmtbr one-shot counters" `Quick test_pmtbr_stats;
        ]
        @ qsuite [ prop_finish_pins_state_dimension ] );
      ( "satellites",
        Alcotest.test_case "snapshot count" `Quick test_time_sampled_snapshot_count
        :: Alcotest.test_case "snapshot invalid args" `Quick test_time_sampled_invalid_args
        :: qsuite [ prop_error_curve_matches_quadratic ] );
    ]
