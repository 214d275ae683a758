(* Tests for the dense kernel layer (Par_kernel / Svd / Qr): the fan
   every parallel loop runs on (index order, lowest-index failure, the
   one worker rule), bitwise worker-invariance of the panelled GEMM/gram/mv and the blocked
   Householder QR (including bitwise equality with the naive [Mat]
   kernels and the unblocked serial sweep), bitwise equality of [Mat]'s
   float kernels, [Triplet]'s products and [Sample_cache.apply_q] with
   the generic functor and the closure loops they replaced, agreement
   of the round-robin Jacobi schedule with the serial cyclic reference
   ([Pmtbr_oracle.Cyclic_svd]) to 1e-12 relative accuracy, [Svd.left]
   against [Svd.decompose] bit for bit, and end-to-end
   worker-invariance of the adaptive reductions now that [?workers]
   also sizes the reduction-stage pool. *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_core

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* ------------------------------------------------------------------ *)
(* The fan                                                             *)
(* ------------------------------------------------------------------ *)

exception Job_failed of int

(* Every parallel loop runs on [fan]: results in index order, or the
   exception of the lowest failing index whatever the schedule, and a
   pool record sized by the one worker rule.  A failing job first sleeps
   a moment, so with several workers more than one failure is in flight
   at once. *)
let prop_fan =
  QCheck2.Test.make ~name:"Par_kernel.fan: index order, lowest failure, pool record" ~count:40
    QCheck2.Gen.(
      triple (int_range 0 40) (int_range 1 5) (list_size (int_range 0 3) (int_range 0 45)))
    (fun (n, workers, failing) ->
      let job i =
        if List.mem i failing then begin
          Unix.sleepf 0.001;
          raise (Job_failed i)
        end
        else (i * i) + 1
      in
      let lowest = List.fold_left (fun acc i -> if i < n then min acc i else acc) n failing in
      match Par_kernel.fan ~workers n job with
      | out, pool ->
          if lowest < n then QCheck2.Test.fail_reportf "job %d failed but nothing raised" lowest;
          if out <> Array.init n job then QCheck2.Test.fail_report "results out of index order";
          if pool.Par_kernel.workers <> Par_kernel.pool_size ~workers n then
            QCheck2.Test.fail_reportf "pool of %d workers, rule says %d" pool.Par_kernel.workers
              (Par_kernel.pool_size ~workers n);
          if Array.length pool.Par_kernel.busy_s <> pool.Par_kernel.workers then
            QCheck2.Test.fail_report "busy_s needs one slot per worker";
          let u = Par_kernel.utilisation pool in
          if u < 0.0 || u > 1.0 then QCheck2.Test.fail_reportf "utilisation %g out of [0,1]" u;
          true
      | exception Job_failed i ->
          if i <> lowest then QCheck2.Test.fail_reportf "job %d surfaced, lowest is %d" i lowest;
          true)

(* ------------------------------------------------------------------ *)
(* Level-1/2/3 kernels: bitwise equal to the naive Mat loops           *)
(* ------------------------------------------------------------------ *)

(* Shapes up to 48^3 scalar ops cross the spawn cutover, so both the
   inline and the spawning paths are exercised for workers > 1. *)
let prop_mul_bitwise =
  QCheck2.Test.make ~name:"Par_kernel.mul == Mat.mul (bitwise, any workers)" ~count:20
    QCheck2.Gen.(
      tup5 (int_range 1 48) (int_range 1 48) (int_range 1 48) (int_range 1 4) (int_range 0 999))
    (fun (m, k, n, workers, seed) ->
      let a = Mat.random ~seed m k and b = Mat.random ~seed:(seed + 1) k n in
      bitwise_equal (Par_kernel.mul ~workers a b) (Mat.mul a b))

let prop_gram_bitwise =
  QCheck2.Test.make ~name:"Par_kernel.gram == Mat.gram (bitwise, any workers)" ~count:20
    QCheck2.Gen.(tup4 (int_range 1 96) (int_range 1 32) (int_range 1 4) (int_range 0 999))
    (fun (rows, cols, workers, seed) ->
      let a = Mat.random ~seed rows cols in
      bitwise_equal (Par_kernel.gram ~workers a) (Mat.gram a))

let prop_mv_bitwise =
  QCheck2.Test.make ~name:"Par_kernel.mv == Mat.mv (bitwise, any workers)" ~count:15
    QCheck2.Gen.(tup4 (int_range 1 256) (int_range 1 160) (int_range 1 4) (int_range 0 999))
    (fun (rows, cols, workers, seed) ->
      let a = Mat.random ~seed rows cols in
      let x = Array.init cols (fun i -> sin (float_of_int (i + seed))) in
      Par_kernel.mv ~workers a x = Mat.mv a x)

(* Vectors within one cache block reduce to the plain sequential dot,
   bit for bit (every state dimension in the suite is far below the
   4096-element block). *)
let prop_dot_bitwise_small =
  QCheck2.Test.make ~name:"Par_kernel.dot == Vec.dot below one block (bitwise)" ~count:30
    QCheck2.Gen.(tup2 (int_range 1 4096) (int_range 0 999))
    (fun (n, seed) ->
      let x = Array.init n (fun i -> cos (float_of_int (i + seed))) in
      let y = Array.init n (fun i -> sin (float_of_int (2 * (i + seed)))) in
      Par_kernel.dot x y = Vec.dot x y)

let test_dot_blocked_accuracy () =
  let n = 3 * 4096 in
  let x = Array.init n (fun i -> cos (float_of_int i)) in
  let y = Array.init n (fun i -> sin (float_of_int (3 * i))) in
  let d = Par_kernel.dot x y and d_ref = Vec.dot x y in
  let scale = Float.max (Float.abs d_ref) 1.0 in
  if Float.abs (d -. d_ref) > 1e-12 *. scale then
    Alcotest.failf "blocked dot %.17g vs sequential %.17g" d d_ref

(* ------------------------------------------------------------------ *)
(* Mat and Cmat == the generic functor, bit for bit                     *)
(* ------------------------------------------------------------------ *)

module G = Pmtbr_oracle.Generic_mat
module GC = Pmtbr_oracle.Generic_cmat

(* Bit patterns, so [-0.0] and [0.0] differ and NaN payloads count. *)
let same_bits (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_mat (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && same_bits a.Mat.data b.Mat.data

let same_g (a : Mat.t) (g : G.t) = same_mat a (G.to_mat g)
let same_float x y = same_bits [| x |] [| y |]

let same_cbits (a : Complex.t array) (b : Complex.t array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Complex.t) (y : Complex.t) -> same_float x.re y.re && same_float x.im y.im)
       a b

let same_c (a : Cmat.t) (g : GC.t) =
  a.Cmat.rows = g.GC.rows && a.Cmat.cols = g.GC.cols && same_cbits a.Cmat.data g.GC.data

(* Entries in (-1, 1) with exact 0.0 and -0.0 mixed in, about a quarter
   each, so every zero-skip is taken on both signs of zero, and a rare
   infinity, so a skip that went missing would turn 0 * inf into a NaN. *)
let zeroed_entry st =
  match Random.State.int st 512 with
  | k when k < 128 -> 0.0
  | k when k < 256 -> -0.0
  | 256 -> Float.infinity
  | 257 -> Float.neg_infinity
  | _ -> Random.State.float st 2.0 -. 1.0

(* A matrix of such entries; [?diag] overwrites the diagonal, so that a
   square one is seldom singular. *)
let zeroed_random ?diag ~seed rows cols =
  let st = Random.State.make [| seed |] in
  Mat.init rows cols (fun i j ->
      let v = zeroed_entry st in
      match diag with Some d when i = j -> d | Some _ | None -> v)

(* Both parts drawn as above: complex zeros with every sign combination,
   and zero parts beside infinite ones. *)
let zeroed_complex ?diag ~seed rows cols =
  let st = Random.State.make [| seed |] in
  Cmat.init rows cols (fun i j ->
      let re = zeroed_entry st in
      let im = zeroed_entry st in
      match diag with Some d when i = j -> d | Some _ | None -> { Complex.re; im })

(* Empty dimensions, small shapes and tall (state-dimension) operands. *)
let dim = QCheck2.Gen.(frequency [ (1, return 0); (4, int_range 1 9) ])
let rows_gen = QCheck2.Gen.(frequency [ (3, dim); (1, int_range 100 300) ])

(* What an LU gives: the column [Singular] names, or the solves of a
   vector and of a matrix through its factors. *)
let mat_lu a x b =
  match Mat.lu a with
  | f -> Ok (Mat.lu_solve_vec f x, Mat.lu_solve f b, Mat.solve a b)
  | exception Mat.Singular c -> Error c

let g_lu ga x gb =
  match G.lu ga with
  | f -> Ok (G.lu_solve_vec f x, G.lu_solve f gb, G.solve ga gb)
  | exception G.Singular c -> Error c

let same_lu r g =
  match (r, g) with
  | Ok (v, m, s), Ok (gv, gm, gs) -> same_bits v gv && same_g m gm && same_g s gs
  | Error c, Error gc -> c = gc
  | Ok _, Error _ | Error _, Ok _ -> false

let cmat_lu a x b =
  match Cmat.lu a with
  | f -> Ok (Cmat.lu_solve_vec f x, Cmat.lu_solve f b)
  | exception Cmat.Singular c -> Error c

let gc_lu ga x gb =
  match GC.lu ga with
  | f -> Ok (GC.lu_solve_vec f x, GC.lu_solve f gb)
  | exception GC.Singular c -> Error c

let same_clu r g =
  match (r, g) with
  | Ok (v, m), Ok (gv, gm) -> same_cbits v gv && same_c m gm
  | Error c, Error gc -> c = gc
  | Ok _, Error _ | Error _, Ok _ -> false

(* A position inside an m x k operand and a block starting there, drawn
   from the seed. *)
let block_of ~m ~k seed =
  let row = seed mod (m + 1) and col = seed mod (k + 1) in
  let rows = (seed / 7) mod (m - row + 1) and cols = (seed / 11) mod (k - col + 1) in
  let j = if k > 0 then seed mod k else 0 in
  (row, col, rows, cols, j)

(* Every [Mat] operation on an m x k operand, with partners of the
   shapes each one needs, against the functor at floats. *)
let mat_matches_generic m k n seed =
  let a = zeroed_random ~seed m k and b = zeroed_random ~seed:(seed + 1) k n in
  let a2 = zeroed_random ~seed:(seed + 4) m k and c = zeroed_random ~seed:(seed + 5) m n in
  let d = zeroed_random ~seed:(seed + 6) n k in
  let sq = zeroed_random ~seed:(seed + 7) k k in
  let sqd = zeroed_random ~diag:2.0 ~seed:(seed + 8) k k in
  let ga = G.of_mat a and gb = G.of_mat b and ga2 = G.of_mat a2 and gsq = G.of_mat sq in
  let x = (zeroed_random ~seed:(seed + 2) 1 k).Mat.data in
  let s = Mat.get (zeroed_random ~seed:(seed + 3) 1 1) 0 0 in
  let row, col, rows, cols, j = block_of ~m ~k seed in
  let written = Mat.copy a and gwritten = G.copy ga in
  if m > 0 && k > 0 then begin
    Mat.set written (row mod m) j s;
    Mat.update written (m - 1) j (fun e -> e +. s);
    Mat.set_col written (k - 1) (Mat.col a2 j);
    G.set gwritten (row mod m) j s;
    G.update gwritten (m - 1) j (fun e -> e +. s);
    G.set_col gwritten (k - 1) (G.col ga2 j)
  end;
  let rows_of (mm : Mat.t) = Array.init mm.Mat.rows (fun i -> Array.sub mm.Mat.data (i * k) k) in
  same_g (Mat.create m k) (G.create m k)
  && same_g
       (Mat.init m k (fun i j -> s *. Mat.get a i j))
       (G.init m k (fun i j -> s *. G.get ga i j))
  && same_g (Mat.identity k) (G.identity k)
  && Mat.dims a = G.dims ga
  && same_g (Mat.of_arrays (rows_of a)) (G.of_arrays (rows_of a))
  && (k = 0 || same_bits (Mat.col a j) (G.col ga j))
  && same_g (Mat.sub_matrix a ~row ~col ~rows ~cols) (G.sub_matrix ga ~row ~col ~rows ~cols)
  && same_g (Mat.sub_cols a col cols) (G.sub_cols ga col cols)
  && same_g (Mat.hcat a c) (G.hcat ga (G.of_mat c))
  && same_g (Mat.vcat a d) (G.vcat ga (G.of_mat d))
  && same_g (Mat.transpose a) (G.transpose ga)
  && same_g (Mat.add a a2) (G.add ga ga2)
  && same_g (Mat.sub a a2) (G.sub ga ga2)
  && same_g (Mat.scale s a) (G.scale s ga)
  && same_g (Mat.mul a b) (G.mul ga gb)
  && same_bits (Mat.mv a x) (G.mv ga x)
  && same_g (Mat.gram a) (G.gram ga)
  && same_float (Mat.frobenius a) (G.frobenius ga)
  && same_float (Mat.max_abs a) (G.max_abs ga)
  && same_lu (mat_lu sq x b) (g_lu gsq x gb)
  && same_lu (mat_lu sqd x b) (g_lu (G.of_mat sqd) x gb)
  && same_g (Mat.diag x) (G.diag x)
  && same_bits (Mat.diagonal a) (G.diagonal ga)
  && same_g (Mat.symmetrize sq) (G.symmetrize gsq)
  && same_g written gwritten
  && (m = 0 || k = 0 || same_float (Mat.get a (m - 1) j) (G.get ga (m - 1) j))

(* The same for every [Cmat] operation, against the functor at complex
   scalars, with [Cmat]'s conversions from real operands. *)
let cmat_matches_generic m k n seed =
  let a = zeroed_complex ~seed m k and b = zeroed_complex ~seed:(seed + 1) k n in
  let a2 = zeroed_complex ~seed:(seed + 4) m k in
  let sq = zeroed_complex ~seed:(seed + 7) k k in
  let sqd = zeroed_complex ~diag:{ Complex.re = 2.0; im = -0.5 } ~seed:(seed + 8) k k in
  let ga = GC.of_cmat a and gb = GC.of_cmat b and ga2 = GC.of_cmat a2 in
  let x = (zeroed_complex ~seed:(seed + 2) 1 k).Cmat.data in
  let scalars = (zeroed_complex ~seed:(seed + 3) 1 2).Cmat.data in
  let z = scalars.(0) and w = scalars.(1) in
  let ra = zeroed_random ~seed:(seed + 9) m k and ra2 = zeroed_random ~seed:(seed + 10) m k in
  let row, _, _, _, j = block_of ~m ~k seed in
  let written = Cmat.copy a and gwritten = GC.copy ga in
  if m > 0 && k > 0 then begin
    Cmat.set written (row mod m) j z;
    Cmat.set_col written (k - 1) (Cmat.col a2 j);
    GC.set gwritten (row mod m) j z;
    GC.set_col gwritten (k - 1) (GC.col ga2 j)
  end;
  same_c (Cmat.create m k) (GC.create m k)
  && same_c
       (Cmat.init m k (fun i j -> Complex.conj (Cmat.get a i j)))
       (GC.init m k (fun i j -> Complex.conj (GC.get ga i j)))
  && same_c (Cmat.identity k) (GC.identity k)
  && (k = 0 || same_cbits (Cmat.col a j) (GC.col ga j))
  && same_c (Cmat.conj_transpose a) (GC.conj_transpose ga)
  && same_c (Cmat.add a a2) (GC.add ga ga2)
  && same_c (Cmat.sub a a2) (GC.sub ga ga2)
  && same_c (Cmat.scale z.re a) (GC.scale z.re ga)
  && same_c (Cmat.scale_elt z a) (GC.scale_elt z ga)
  && same_c (Cmat.mul a b) (GC.mul ga gb)
  && same_cbits (Cmat.mv a x) (GC.mv ga x)
  && same_float (Cmat.frobenius a) (GC.frobenius ga)
  && same_float (Cmat.max_abs a) (GC.max_abs ga)
  && same_clu (cmat_lu sq x b) (gc_lu (GC.of_cmat sq) x gb)
  && same_clu (cmat_lu sqd x b) (gc_lu (GC.of_cmat sqd) x gb)
  && same_c (Cmat.of_mat ra) (GC.of_mat ra)
  && same_mat (Cmat.re a) (GC.re ga)
  && same_mat (Cmat.im a) (GC.im ga)
  && same_c (Cmat.axpby_real ~alpha:z ra ~beta:w ra2) (GC.axpby_real ~alpha:z ra ~beta:w ra2)
  && same_c written gwritten
  && (m = 0 || k = 0 || same_cbits [| Cmat.get a (m - 1) j |] [| GC.get ga (m - 1) j |])

(* One property for the whole dense layer: every [Mat] and [Cmat]
   operation against [Gen_mat] at floats and at complex scalars, on
   empty, tall and zero-laden shapes with signed zeros and infinities;
   an LU must raise [Singular] at the functor's column. *)
let prop_float_kernels_match_generic =
  QCheck2.Test.make ~name:"Mat float kernels == Gen_mat at floats (bitwise)" ~count:200
    QCheck2.Gen.(tup4 rows_gen dim dim (int_range 0 99_999))
    (fun (m, k, n, seed) -> mat_matches_generic m k n seed && cmat_matches_generic m k n seed)

(* Random triplets with repeated (row, col) positions, against the old
   per-entry closure loops. *)
let prop_triplet_products_match_closure_loops =
  QCheck2.Test.make ~name:"Triplet.mul_dense/to_dense == closure loops (bitwise)" ~count:60
    QCheck2.Gen.(tup4 rows_gen rows_gen dim (int_range 0 99_999))
    (fun (rows, cols, p, seed) ->
      let st = Random.State.make [| seed |] in
      let t = Pmtbr_sparse.Triplet.create rows cols in
      if rows > 0 && cols > 0 then
        for _ = 1 to 3 * (rows + cols) do
          Pmtbr_sparse.Triplet.add t
            (Random.State.int st (min rows 12))
            (Random.State.int st cols)
            (Random.State.float st 2.0 -. 1.0)
        done;
      let m = zeroed_random ~seed:(seed + 1) cols p in
      same_mat (Pmtbr_sparse.Triplet.mul_dense t m) (G.triplet_mul_dense t m)
      && same_mat (Pmtbr_sparse.Triplet.to_dense t) (G.triplet_to_dense t))

(* A tall cache: an 8x8 mesh (64 states), 3 ports, 4 points, built at 1
   and 3 workers.  [apply_q] of the identity is Q itself, up to the sign
   of zero entries, which a sum that starts at +0.0 never sees; the
   reference loop then runs on that Q. *)
let tall_cache =
  lazy
    (let sys = Dss.of_netlist (Rc_mesh.generate ~rows:8 ~cols:8 ~ports:3 ()) in
     let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:4 in
     let caches =
       Array.map
         (fun workers ->
           let c = Sample_cache.create ~workers sys in
           Sample_cache.extend c pts;
           c)
         [| 1; 3 |]
     in
     let c = Sample_cache.columns caches.(0) in
     (caches, Sample_cache.apply_q caches.(0) (Mat.identity c)))

let prop_apply_q_matches_column_loop =
  QCheck2.Test.make ~name:"Sample_cache.apply_q == column-outer loop (bitwise)" ~count:30
    QCheck2.Gen.(pair (int_range 0 40) (int_range 0 99_999))
    (fun (p, seed) ->
      let caches, q = Lazy.force tall_cache in
      let coeff = zeroed_random ~seed q.Mat.cols p in
      let expected = G.apply_q q coeff in
      Array.for_all (fun c -> same_mat (Sample_cache.apply_q c coeff) expected) caches)

(* ------------------------------------------------------------------ *)
(* Blocked Householder QR                                              *)
(* ------------------------------------------------------------------ *)

(* Column counts above the 32-column panel width force multiple panels,
   covering the deferred (parallel) trailing update. *)
let prop_qr_blocked_equals_reference =
  QCheck2.Test.make ~name:"blocked QR == unblocked serial sweep (bitwise)" ~count:15
    QCheck2.Gen.(tup3 (int_range 1 48) (int_range 1 4) (int_range 0 999))
    (fun (n, workers, seed) ->
      let m = n + (seed mod 17) in
      let a = Mat.random ~seed m n in
      let q, r = Qr.thin ~workers a in
      let q_ref, r_ref = Pmtbr_oracle.Unblocked_qr.thin a in
      bitwise_equal q q_ref && bitwise_equal r r_ref)

let prop_qr_factor_worker_invariant =
  QCheck2.Test.make ~name:"packed QR factor is worker-invariant (bitwise)" ~count:15
    QCheck2.Gen.(tup4 (int_range 1 60) (int_range 1 60) (int_range 2 4) (int_range 0 999))
    (fun (m, n, workers, seed) ->
      let a = Mat.random ~seed m n in
      let f1 = Qr.factorize ~workers:1 a in
      let fw = Qr.factorize ~workers a in
      bitwise_equal f1.Par_kernel.wf fw.Par_kernel.wf
      && f1.Par_kernel.betas = fw.Par_kernel.betas)

let test_qr_apply_q_matches_thin_q () =
  let a = Mat.random ~seed:7 50 40 in
  let f = Qr.factorize ~workers:3 a in
  (* applying the packed reflectors to identity columns IS the thin Q *)
  Alcotest.(check bool)
    "apply_q on identity == thin_q (bitwise)" true
    (bitwise_equal (Qr.thin_q ~workers:3 f) (Qr.apply_q ~workers:3 f (Mat.identity 40)))

let test_qr_apply_qt_adjoint () =
  let a = Mat.random ~seed:11 45 20 in
  let f = Qr.factorize a in
  let x = Mat.random ~seed:12 20 6 in
  (* Q^T (Q x) recovers x in the thin rows, zeros elsewhere *)
  let y = Qr.apply_qt f (Qr.apply_q f x) in
  let top = Mat.sub_matrix y ~row:0 ~col:0 ~rows:20 ~cols:6 in
  let drift = Mat.max_abs (Mat.sub top x) in
  if drift > 1e-13 then Alcotest.failf "adjoint round trip drift %g" drift;
  let bottom = Mat.sub_matrix y ~row:20 ~col:0 ~rows:25 ~cols:6 in
  if Mat.max_abs bottom > 1e-13 then
    Alcotest.failf "below-rank residual %g" (Mat.max_abs bottom)

let test_qr_apply_qt_vec_matches_matrix () =
  let a = Mat.random ~seed:13 30 14 in
  let f = Qr.factorize a in
  let x = Array.init 30 (fun i -> cos (float_of_int (5 * i))) in
  let y_vec = Qr.apply_qt_vec f x in
  let y_mat = Qr.apply_qt f (Mat.init 30 1 (fun i _ -> x.(i))) in
  Alcotest.(check bool)
    "vector path == single-column path (bitwise)" true
    (y_vec = Array.init 30 (fun i -> Mat.get y_mat i 0))

let test_qr_reconstruction () =
  let a = Mat.random ~seed:17 64 40 in
  let q, r = Qr.thin ~workers:4 a in
  let residual = Mat.max_abs (Mat.sub (Mat.mul q r) a) /. Mat.max_abs a in
  if residual > 1e-13 then Alcotest.failf "QR reconstruction residual %g" residual;
  let ortho = Mat.max_abs (Mat.sub (Mat.gram q) (Mat.identity 40)) in
  if ortho > 1e-13 then Alcotest.failf "Q orthonormality drift %g" ortho

(* ------------------------------------------------------------------ *)
(* Round-robin Jacobi SVD vs the serial cyclic reference               *)
(* ------------------------------------------------------------------ *)

(* Tall shapes (m > 2n) also cover the QR-preconditioned path. *)
let sigma_drift m n seed workers =
  let a = Mat.random ~seed m n in
  let s_par = Svd.values ~workers a in
  let s_cyc = Pmtbr_oracle.Cyclic_svd.values a in
  if Array.length s_par <> Array.length s_cyc then infinity
  else begin
    let smax = Float.max s_cyc.(0) 1e-300 in
    let worst = ref 0.0 in
    Array.iteri
      (fun i s -> worst := Float.max !worst (Float.abs (s -. s_cyc.(i)) /. smax))
      s_par;
    !worst
  end

let prop_jacobi_sigma_matches_cyclic =
  QCheck2.Test.make ~name:"round-robin sigma within 1e-12 of serial cyclic" ~count:20
    QCheck2.Gen.(tup4 (int_range 1 80) (int_range 1 24) (int_range 1 4) (int_range 0 999))
    (fun (m, n, workers, seed) -> sigma_drift m n seed workers <= 1e-12)

let prop_svd_worker_invariant =
  QCheck2.Test.make ~name:"Svd.decompose is worker-invariant (bitwise)" ~count:10
    QCheck2.Gen.(tup4 (int_range 2 60) (int_range 2 20) (int_range 2 4) (int_range 0 999))
    (fun (m, n, workers, seed) ->
      let a = Mat.random ~seed m n in
      let d1 = Svd.decompose ~workers:1 a in
      let dw = Svd.decompose ~workers a in
      bitwise_equal d1.Svd.u dw.Svd.u
      && d1.Svd.sigma = dw.Svd.sigma
      && bitwise_equal d1.Svd.v dw.Svd.v
      && Svd.values ~workers:1 a = Svd.values ~workers a)

(* [Svd.left] skips the right singular vectors of [decompose] but not
   one bit of its (u, sigma): tall, square, QR-preconditioned
   (rows > 2 cols), wide and rank-deficient blocks. *)
let prop_svd_left_matches_decompose =
  QCheck2.Test.make ~name:"Svd.left == Svd.decompose's (u, sigma) (bitwise)" ~count:30
    QCheck2.Gen.(quad (int_range 0 4) (int_range 1 16) (int_range 1 3) (int_range 0 999))
    (fun (shape, k, workers, seed) ->
      let a =
        match shape with
        | 0 -> Mat.random ~seed (k + 1 + (seed mod k)) k
        | 1 -> Mat.random ~seed k k
        | 2 -> Mat.random ~seed ((2 * k) + 1 + (seed mod 20)) k
        | 3 -> Mat.random ~seed k (k + 1 + (seed mod 20))
        | _ ->
            let m = (2 * k) + 3 and n = k + 1 and r = max 1 (k / 2) in
            let low = Mat.mul (Mat.random ~seed m r) (Mat.random ~seed:(seed + 1) r n) in
            if seed land 1 = 0 then low else Mat.transpose low
      in
      let u, sigma = Svd.left ~workers a in
      let d = Svd.decompose ~workers a in
      bitwise_equal u d.Svd.u && sigma = d.Svd.sigma)

let test_svd_preconditioned_reconstruction () =
  (* clearly tall: runs QR preconditioning + round-robin on the small R *)
  let a = Mat.random ~seed:23 90 18 in
  let { Svd.u; sigma; v } = Svd.decompose ~workers:3 a in
  let usv = Mat.mul u (Mat.mul (Mat.diag sigma) (Mat.transpose v)) in
  let residual = Mat.max_abs (Mat.sub usv a) /. Mat.max_abs a in
  if residual > 1e-13 then Alcotest.failf "SVD reconstruction residual %g" residual;
  let ortho = Mat.max_abs (Mat.sub (Mat.gram u) (Mat.identity 18)) in
  if ortho > 1e-13 then Alcotest.failf "U orthonormality drift %g" ortho

(* ------------------------------------------------------------------ *)
(* End-to-end worker invariance of the reduction drivers               *)
(* ------------------------------------------------------------------ *)

let mesh_system ~rows ~cols ~ports = Dss.of_netlist (Rc_mesh.generate ~rows ~cols ~ports ())

let test_reduce_adaptive_worker_invariant () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:16 in
  let r1 = Pmtbr.reduce_adaptive ~tol:1e-9 ~workers:1 sys pts in
  let r4 = Pmtbr.reduce_adaptive ~tol:1e-9 ~workers:4 sys pts in
  Alcotest.(check int) "samples" r1.Pmtbr.samples r4.Pmtbr.samples;
  Alcotest.(check bool)
    "singular values bitwise" true
    (r1.Pmtbr.singular_values = r4.Pmtbr.singular_values);
  Alcotest.(check bool) "basis bitwise" true 
    (bitwise_equal (Lazy.force r1.Pmtbr.basis) (Lazy.force r4.Pmtbr.basis))

let test_cross_gramian_worker_invariant () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e10 }) ~count:10 in
  let r1 = Cross_gramian.reduce ~workers:1 sys pts in
  let r4 = Cross_gramian.reduce ~workers:4 sys pts in
  Alcotest.(check bool)
    "eigenvalues bitwise" true
    (r1.Cross_gramian.eigenvalues = r4.Cross_gramian.eigenvalues);
  Alcotest.(check bool)
    "basis bitwise" true
    (bitwise_equal r1.Cross_gramian.basis r4.Cross_gramian.basis)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fan;
      prop_mul_bitwise;
      prop_gram_bitwise;
      prop_mv_bitwise;
      prop_float_kernels_match_generic;
      prop_triplet_products_match_closure_loops;
      prop_apply_q_matches_column_loop;
      prop_dot_bitwise_small;
      prop_qr_blocked_equals_reference;
      prop_qr_factor_worker_invariant;
      prop_jacobi_sigma_matches_cyclic;
      prop_svd_worker_invariant;
      prop_svd_left_matches_decompose;
    ]

let () =
  Alcotest.run "pmtbr_par_kernel"
    [
      ("properties", props);
      ( "kernels",
        [ Alcotest.test_case "blocked dot accuracy" `Quick test_dot_blocked_accuracy ] );
      ( "qr",
        [
          Alcotest.test_case "apply_q == thin_q" `Quick test_qr_apply_q_matches_thin_q;
          Alcotest.test_case "apply_qt adjoint" `Quick test_qr_apply_qt_adjoint;
          Alcotest.test_case "apply_qt_vec" `Quick test_qr_apply_qt_vec_matches_matrix;
          Alcotest.test_case "reconstruction" `Quick test_qr_reconstruction;
        ] );
      ( "svd",
        [
          Alcotest.test_case "preconditioned reconstruction" `Quick
            test_svd_preconditioned_reconstruction;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "adaptive worker invariant" `Quick
            test_reduce_adaptive_worker_invariant;
          Alcotest.test_case "cross-gramian worker invariant" `Quick
            test_cross_gramian_worker_invariant;
        ] );
    ]
