(* Shared shifted-solve machinery wiring descriptor systems into the
   operator-abstract Lr_lyap engines.

   The load-bearing piece is the shared solver: every Gramian side is
   driven through ONE prepared Dss.multi_shift handle, so the symbolic
   analysis of the sparse pencil is paid once and every distinct ADI
   shift costs exactly one numeric refactorisation.  The trick that makes
   the sharing work across the controllability/observability pair is on
   the observability side: its equation needs (A^T + p E^T)^{-1}, i.e. a
   hermitian solve of (sE - A) at s = -conj p — so by handing the
   observability solver the CONJUGATED shift list, both sides request
   factors at the identical keys s = -p and the cache hits. *)

open Pmtbr_la
open Pmtbr_sparse

type counters = {
  mutable symbolic : int;
  mutable numeric : int;
  mutable solve_count : int;
  mutable col_solves : int;
}

(* Shifted solves through one multi-shift handle.

   Factor cache key: the shift s of (sE - A), plus the hermitian flag only
   where the factor itself depends on it.  Sparse factors are
   side-agnostic (the hermitian dispatch happens at solve time), so both
   sides share one factor per shift; the dense fallback bakes the
   conjugate-transpose into the LU, so dense keys carry the flag.

   [?ms] reuses an already prepared handle (the serve layer keeps one per
   cached network); the symbolic counter then stays 0 because the analysis
   was paid before this reduction started. *)
let shared_solver ?ms sys =
  let counters = { symbolic = 0; numeric = 0; solve_count = 0; col_solves = 0 } in
  let handle = ref ms in
  let get_handle s =
    match !handle with
    | Some h -> h
    | None ->
        counters.symbolic <- counters.symbolic + 1;
        let h = Dss.multi_shift ~template:s sys in
        handle := Some h;
        h
  in
  let sparse = match sys with Dss.Sparse _ -> true | Dss.Dense _ -> false in
  let cache : (Complex.t * bool, Dss.shifted_factor) Hashtbl.t =
    Hashtbl.create 16
  in
  let solve ~hermitian s r =
    (* normalise -0. components so equal shifts hash equally *)
    let s = { Complex.re = s.Complex.re +. 0.0; im = s.Complex.im +. 0.0 } in
    let key = (s, (not sparse) && hermitian) in
    let f =
      match Hashtbl.find_opt cache key with
      | Some f -> f
      | None ->
          let h = get_handle s in
          counters.numeric <- counters.numeric + 1;
          let f = Dss.multi_factor h ~hermitian:(snd key) s in
          Hashtbl.add cache key f;
          f
    in
    counters.solve_count <- counters.solve_count + 1;
    counters.col_solves <- counters.col_solves + r.Mat.cols;
    Dss.multi_solve_factored f ~hermitian r
  in
  (solve, counters)

let neg_cols = Array.map (Array.map Complex.neg)

let mat_of_cols n (cols : float array array) =
  Mat.init n (Array.length cols) (fun i j -> cols.(j).(i))

(* E and E^T solves: one real factorisation serves both directions (the
   sparse LU exposes transposed solves on the same factor). *)
let e_solvers sys =
  match sys with
  | Dss.Dense { e; _ } ->
      let lu_of m =
        lazy
          (try Mat.lu m
           with Mat.Singular _ -> invalid_arg "Lyap_ops: singular E")
      in
      let lu = lu_of e and lut = lu_of (Mat.transpose e) in
      ( (fun r -> Mat.lu_solve (Lazy.force lu) r),
        fun r -> Mat.lu_solve (Lazy.force lut) r )
  | Dss.Sparse { e; n; _ } ->
      let fact =
        lazy
          (try Sparse_lu.factorize (Csc.of_triplet e)
           with Sparse_lu.Singular _ -> invalid_arg "Lyap_ops: singular E")
      in
      let with_cols solve1 (r : Mat.t) =
        mat_of_cols n
          (Array.init r.Mat.cols (fun j ->
               solve1 (Lazy.force fact) (Mat.col r j)))
      in
      ( with_cols Sparse_lu.solve_vec,
        with_cols Sparse_lu.solve_transposed_vec )

(* The two Lr_lyap operator views of one descriptor system.

   Controllability:  (A + pE)^{-1} R = -(sE - A)^{-1} R        at s = -p.
   Observability:    (A^T + pE^T)^{-1} R = -(sE - A)^{-H} R    at s = -conj p.
   Both map onto the same factor key when the observability side is given
   conjugated shifts — which the callers always do. *)
let ops_of_dss solve sys =
  let n = Dss.order sys in
  let solve_e, solve_et = e_solvers sys in
  let mul_et, mul_at =
    match sys with
    | Dss.Sparse { e; a; _ } ->
        let et = Triplet.transpose e and at = Triplet.transpose a in
        ((fun v -> Triplet.mul_dense et v), fun v -> Triplet.mul_dense at v)
    | Dss.Dense { e; a; _ } ->
        let et = Mat.transpose e and at = Mat.transpose a in
        (Mat.mul et, Mat.mul at)
  in
  let ctrl =
    {
      Lr_lyap.n;
      mul_e = Dss.apply_e sys;
      mul_a = Dss.apply_a sys;
      solve_shift =
        (fun p r -> neg_cols (solve ~hermitian:false (Complex.neg p) r));
      solve_e;
    }
  in
  let obs =
    {
      Lr_lyap.n;
      mul_e = mul_et;
      mul_a = mul_at;
      solve_shift =
        (fun p r ->
          neg_cols
            (solve ~hermitian:true (Complex.neg (Complex.conj p)) r));
      solve_e = solve_et;
    }
  in
  (ctrl, obs)
