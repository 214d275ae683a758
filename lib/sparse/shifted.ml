(* Factorisation of the shifted pencil (s E - A) for complex s, assembled
   from real triplet accumulators.  This is the inner kernel of PMTBR: one
   complex sparse factorisation per frequency sample. *)

type pencil = { e : Triplet.t; a : Triplet.t; n : int }

let pencil ~e ~a =
  let re, ce = Triplet.dims e and ra, ca = Triplet.dims a in
  let n = max (max re ce) (max ra ca) in
  assert (re <= n && ce <= n && ra <= n && ca <= n);
  { e; a; n }

type factor = Sparse_lu.C.factor

(* Factor (s E - A). *)
let factorize ?(ordering = Ordering.Lower_fill) (p : pencil) (s : Complex.t) : factor =
  let m = Csc.complex_combination ~alpha:s p.e ~beta:{ Complex.re = -1.0; im = 0.0 } p.a in
  (* pad to n x n in case trailing rows/cols carry no entries *)
  let m =
    if m.Csc.C.rows = p.n && m.Csc.C.cols = p.n then m
    else Csc.C.of_entries p.n p.n (Csc.C.to_entries m)
  in
  Sparse_lu.C.factorize ~ordering m

(* ------------------------------------------------------------------ *)
(* Multi-shift handle: symbolic work shared across all shifts           *)
(* ------------------------------------------------------------------ *)

(* The nonzero pattern of (sE - A) is the same for every s, so a sweep over
   many shifts should pay for the pattern assembly (triplet sort + merge),
   the fill-reducing ordering and the elimination analysis exactly once.
   [multi] stores the union pattern with separate E and A coefficient
   planes — the numeric matrix at shift s is just values[k] = s*e[k] - a[k]
   — plus a template factorisation whose structure every other shift reuses
   through [Sparse_lu.C.refactorize]. *)
(* Unboxed complex factor.  A [Complex.t array] is an array of pointers to
   two-float records, so a replay loop over one pays an allocation per
   multiply and a cache miss per load; storing the values as parallel
   re/im float arrays (which OCaml unboxes) makes the per-shift numeric
   refactorisation allocation-free.  Structure arrays are shared with the
   template factor. *)
type zfactor = {
  zn : int;
  zl_colptr : int array;
  zl_rowind : int array;
  zl_re : float array;
  zl_im : float array;
  zu_colptr : int array;
  zu_rowind : int array;
  zu_re : float array;
  zu_im : float array;
  zd_re : float array; (* U diagonal (the pivots) *)
  zd_im : float array;
  zpinv : int array;
  zq : int array;
}

let split_complex (a : Complex.t array) =
  ( Array.map (fun z -> z.Complex.re) a,
    Array.map (fun z -> z.Complex.im) a )

let zfactor_of_factor (f : factor) : zfactor =
  let r = Sparse_lu.C.raw f in
  let l_re, l_im = split_complex r.Sparse_lu.C.raw_l_values in
  let u_re, u_im = split_complex r.Sparse_lu.C.raw_u_values in
  let d_re, d_im = split_complex r.Sparse_lu.C.raw_u_diag in
  {
    zn = r.Sparse_lu.C.raw_n;
    zl_colptr = r.Sparse_lu.C.raw_l_colptr;
    zl_rowind = r.Sparse_lu.C.raw_l_rowind;
    zl_re = l_re;
    zl_im = l_im;
    zu_colptr = r.Sparse_lu.C.raw_u_colptr;
    zu_rowind = r.Sparse_lu.C.raw_u_rowind;
    zu_re = u_re;
    zu_im = u_im;
    zd_re = d_re;
    zd_im = d_im;
    zpinv = r.Sparse_lu.C.raw_pinv;
    zq = r.Sparse_lu.C.raw_q;
  }

type multi = {
  n : int;
  colptr : int array;
  rowind : int array;
  e_coef : float array;
  a_coef : float array;
  q : int array; (* column elimination order, computed once *)
  pick : Ordering.pick option; (* the default rule's choice and its evidence *)
  template : factor;
  tz : zfactor; (* unboxed view of the template, replayed per shift *)
}

(* Union pattern of E and A as parallel coefficient arrays (duplicates
   summed componentwise), mirroring Csc.of_entries assembly. *)
let assemble_pattern (p : pencil) =
  let entries =
    List.rev_append
      (List.rev_map (fun (i, j, v) -> (i, j, v, 0.0)) (Triplet.entries p.e))
      (List.map (fun (i, j, v) -> (i, j, 0.0, v)) (Triplet.entries p.a))
  in
  let arr = Array.of_list entries in
  Array.iter (fun (i, j, _, _) -> assert (i >= 0 && i < p.n && j >= 0 && j < p.n)) arr;
  Array.sort
    (fun (i1, j1, _, _) (i2, j2, _, _) -> if j1 <> j2 then compare j1 j2 else compare i1 i2)
    arr;
  let merged = ref [] and count = ref 0 in
  Array.iter
    (fun (i, j, ev, av) ->
      match !merged with
      | (i', j', ev', av') :: rest when i = i' && j = j' ->
          merged := (i, j, ev +. ev', av +. av') :: rest
      | _ ->
          merged := (i, j, ev, av) :: !merged;
          incr count)
    arr;
  let merged = Array.of_list (List.rev !merged) in
  let nnz = Array.length merged in
  let colptr = Array.make (p.n + 1) 0 in
  Array.iter (fun (_, j, _, _) -> colptr.(j + 1) <- colptr.(j + 1) + 1) merged;
  for j = 0 to p.n - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  let rowind = Array.make nnz 0 in
  let e_coef = Array.make nnz 0.0 and a_coef = Array.make nnz 0.0 in
  Array.iteri
    (fun k (i, _, ev, av) ->
      rowind.(k) <- i;
      e_coef.(k) <- ev;
      a_coef.(k) <- av)
    merged;
  (colptr, rowind, e_coef, a_coef)

(* The numeric matrix at one shift, on the shared pattern: O(nnz), no
   sorting, no allocation beyond the values array. *)
let matrix_at ~n ~colptr ~rowind ~e_coef ~a_coef (s : Complex.t) : Csc.C.t =
  let nnz = Array.length rowind in
  let values =
    Array.init nnz (fun k ->
        let e = e_coef.(k) and a = a_coef.(k) in
        { Complex.re = (s.Complex.re *. e) -. a; im = s.Complex.im *. e })
  in
  { Csc.C.rows = n; cols = n; colptr; rowind; values }

let prepare ?(ordering = Ordering.Lower_fill) (p : pencil) ~(template : Complex.t) =
  let colptr, rowind, e_coef, a_coef = assemble_pattern p in
  let q, pick =
    match ordering with
    | Ordering.Lower_fill -> Ordering.lower_fill colptr rowind p.n |> fun (q, k) -> (q, Some k)
    | o -> (Ordering.compute o colptr rowind p.n, None)
  in
  let m0 = matrix_at ~n:p.n ~colptr ~rowind ~e_coef ~a_coef template in
  let template = Sparse_lu.C.factorize ~ordering:(Ordering.Given q) m0 in
  let tz = zfactor_of_factor template in
  { n = p.n; colptr; rowind; e_coef; a_coef; q; pick; template; tz }

let ordering m = m.pick

(* Reused pivots are declared stale below this magnitude relative to their
   eliminated column; the shift then pays for a fresh pivoting
   factorisation instead of losing accuracy silently. *)
let refactor_pivot_tol = 1e-10

let refactor (m : multi) (s : Complex.t) : factor =
  let a =
    matrix_at ~n:m.n ~colptr:m.colptr ~rowind:m.rowind ~e_coef:m.e_coef ~a_coef:m.a_coef s
  in
  try Sparse_lu.C.refactorize ~pivot_tol:refactor_pivot_tol m.template a
  with Sparse_lu.C.Singular _ ->
    (* fresh pivot search at this shift; still raises Singular if (sE - A)
       is genuinely singular *)
    Sparse_lu.C.factorize ~ordering:(Ordering.Given m.q) a

(* ------------------------------------------------------------------ *)
(* Unboxed per-shift replay and solves                                   *)
(* ------------------------------------------------------------------ *)

exception Stale_pivot

(* Numeric-only replay of the template elimination at shift s, entirely on
   float arrays: the per-shift values s*e - a are scattered straight from
   the coefficient planes (the complex CSC matrix is never materialised)
   and the Gilbert-Peierls update loop runs without boxing a single
   complex.  Division is Smith's algorithm, matching Complex.div. *)
let zreplay (m : multi) (s : Complex.t) : zfactor =
  let t = m.tz in
  let n = t.zn in
  let sre = s.Complex.re and sim = s.Complex.im in
  let l_re = Array.make (Array.length t.zl_re) 0.0 in
  let l_im = Array.make (Array.length t.zl_im) 0.0 in
  let u_re = Array.make (Array.length t.zu_re) 0.0 in
  let u_im = Array.make (Array.length t.zu_im) 0.0 in
  let d_re = Array.make n 0.0 and d_im = Array.make n 0.0 in
  let xre = Array.make n 0.0 and xim = Array.make n 0.0 in
  let mark = Array.make n (-1) in
  for k = 0 to n - 1 do
    (* the column's pattern in pivot coordinates: U rows, k, L rows *)
    for p = t.zu_colptr.(k) to t.zu_colptr.(k + 1) - 1 do
      let i = t.zu_rowind.(p) in
      xre.(i) <- 0.0;
      xim.(i) <- 0.0;
      mark.(i) <- k
    done;
    xre.(k) <- 0.0;
    xim.(k) <- 0.0;
    mark.(k) <- k;
    for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
      let i = t.zl_rowind.(p) in
      xre.(i) <- 0.0;
      xim.(i) <- 0.0;
      mark.(i) <- k
    done;
    (* scatter the shifted column s*e - a *)
    let jcol = t.zq.(k) in
    for p = m.colptr.(jcol) to m.colptr.(jcol + 1) - 1 do
      let i = t.zpinv.(m.rowind.(p)) in
      if mark.(i) <> k then
        invalid_arg "Shifted.zreplay: matrix pattern differs from the template";
      xre.(i) <- (sre *. m.e_coef.(p)) -. m.a_coef.(p);
      xim.(i) <- sim *. m.e_coef.(p)
    done;
    (* eliminate with the already-final L columns, ascending pivot order *)
    for p = t.zu_colptr.(k) to t.zu_colptr.(k + 1) - 1 do
      let j = t.zu_rowind.(p) in
      let xjre = xre.(j) and xjim = xim.(j) in
      u_re.(p) <- xjre;
      u_im.(p) <- xjim;
      if xjre <> 0.0 || xjim <> 0.0 then
        for lp = t.zl_colptr.(j) to t.zl_colptr.(j + 1) - 1 do
          let r = t.zl_rowind.(lp) in
          let lre = l_re.(lp) and lim = l_im.(lp) in
          xre.(r) <- xre.(r) -. ((lre *. xjre) -. (lim *. xjim));
          xim.(r) <- xim.(r) -. ((lre *. xjim) +. (lim *. xjre))
        done
    done;
    (* reused pivot: check it has not gone stale relative to its column *)
    let pre = xre.(k) and pim = xim.(k) in
    let pmag = Float.hypot pre pim in
    let colmax = ref pmag in
    for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
      let i = t.zl_rowind.(p) in
      let mag = Float.hypot xre.(i) xim.(i) in
      if mag > !colmax then colmax := mag
    done;
    if pmag <= refactor_pivot_tol *. !colmax || pmag = 0.0 then raise Stale_pivot;
    d_re.(k) <- pre;
    d_im.(k) <- pim;
    (* L column entries divided by the pivot (Smith's division, inline) *)
    if Float.abs pre >= Float.abs pim then begin
      let r = pim /. pre in
      let d = pre +. (r *. pim) in
      for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
        let i = t.zl_rowind.(p) in
        let nre = xre.(i) and nim = xim.(i) in
        l_re.(p) <- (nre +. (r *. nim)) /. d;
        l_im.(p) <- (nim -. (r *. nre)) /. d
      done
    end
    else begin
      let r = pre /. pim in
      let d = pim +. (r *. pre) in
      for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
        let i = t.zl_rowind.(p) in
        let nre = xre.(i) and nim = xim.(i) in
        l_re.(p) <- ((r *. nre) +. nim) /. d;
        l_im.(p) <- ((r *. nim) -. nre) /. d
      done
    end
  done;
  { t with zl_re = l_re; zl_im = l_im; zu_re = u_re; zu_im = u_im; zd_re = d_re; zd_im = d_im }

let refactor_z (m : multi) (s : Complex.t) : zfactor =
  try zreplay m s
  with Stale_pivot ->
    (* fresh pivot search at this shift, then back to the unboxed form;
       still raises Sparse_lu.C.Singular if (sE - A) is genuinely
       singular *)
    let a =
      matrix_at ~n:m.n ~colptr:m.colptr ~rowind:m.rowind ~e_coef:m.e_coef ~a_coef:m.a_coef s
    in
    zfactor_of_factor (Sparse_lu.C.factorize ~ordering:(Ordering.Given m.q) a)

(* Forward/backward substitution on the unboxed factor for one real
   right-hand-side column, into the caller's float workspaces. *)
let zsolve_col (f : zfactor) (b : Pmtbr_la.Mat.t) jcol (wre : float array) (wim : float array)
    =
  let n = f.zn in
  (* w = P b *)
  for i = 0 to n - 1 do
    wre.(f.zpinv.(i)) <- Pmtbr_la.Mat.get b i jcol;
    wim.(f.zpinv.(i)) <- 0.0
  done;
  (* L w = w (unit diagonal) *)
  for k = 0 to n - 1 do
    let ykre = wre.(k) and ykim = wim.(k) in
    if ykre <> 0.0 || ykim <> 0.0 then
      for p = f.zl_colptr.(k) to f.zl_colptr.(k + 1) - 1 do
        let r = f.zl_rowind.(p) in
        let lre = f.zl_re.(p) and lim = f.zl_im.(p) in
        wre.(r) <- wre.(r) -. ((lre *. ykre) -. (lim *. ykim));
        wim.(r) <- wim.(r) -. ((lre *. ykim) +. (lim *. ykre))
      done
  done;
  (* U w = w *)
  for k = n - 1 downto 0 do
    let nre = wre.(k) and nim = wim.(k) in
    let dre = f.zd_re.(k) and dim = f.zd_im.(k) in
    let ykre, ykim =
      if Float.abs dre >= Float.abs dim then begin
        let r = dim /. dre in
        let d = dre +. (r *. dim) in
        ((nre +. (r *. nim)) /. d, (nim -. (r *. nre)) /. d)
      end
      else begin
        let r = dre /. dim in
        let d = dim +. (r *. dre) in
        (((r *. nre) +. nim) /. d, ((r *. nim) -. nre) /. d)
      end
    in
    wre.(k) <- ykre;
    wim.(k) <- ykim;
    if ykre <> 0.0 || ykim <> 0.0 then
      for p = f.zu_colptr.(k) to f.zu_colptr.(k + 1) - 1 do
        let r = f.zu_rowind.(p) in
        let ure = f.zu_re.(p) and uim = f.zu_im.(p) in
        wre.(r) <- wre.(r) -. ((ure *. ykre) -. (uim *. ykim));
        wim.(r) <- wim.(r) -. ((ure *. ykim) +. (uim *. ykre))
      done
  done

let zsolve_dense (f : zfactor) (b : Pmtbr_la.Mat.t) : Complex.t array array =
  let n = f.zn in
  let wre = Array.make n 0.0 and wim = Array.make n 0.0 in
  Array.init b.Pmtbr_la.Mat.cols (fun jcol ->
      zsolve_col f b jcol wre wim;
      (* x = Q w: undo the column permutation while boxing the output *)
      let x = Array.make n Complex.zero in
      for k = 0 to n - 1 do
        x.(f.zq.(k)) <- { Complex.re = wre.(k); im = wim.(k) }
      done;
      x)

(* (sE - A)^H x = b for real b: conj ((sE - A)^T conj x) = b, so run the
   transposed solve on the (real) rhs and conjugate the result. *)
let zsolve_hermitian_col (f : zfactor) (b : Pmtbr_la.Mat.t) jcol (wre : float array)
    (wim : float array) =
  let n = f.zn in
  (* w = Q^T b *)
  for k = 0 to n - 1 do
    wre.(k) <- Pmtbr_la.Mat.get b f.zq.(k) jcol;
    wim.(k) <- 0.0
  done;
  (* U^T w = w, ascending *)
  for k = 0 to n - 1 do
    let accre = ref wre.(k) and accim = ref wim.(k) in
    for p = f.zu_colptr.(k) to f.zu_colptr.(k + 1) - 1 do
      let r = f.zu_rowind.(p) in
      let ure = f.zu_re.(p) and uim = f.zu_im.(p) in
      accre := !accre -. ((ure *. wre.(r)) -. (uim *. wim.(r)));
      accim := !accim -. ((ure *. wim.(r)) +. (uim *. wre.(r)))
    done;
    let nre = !accre and nim = !accim in
    let dre = f.zd_re.(k) and dim = f.zd_im.(k) in
    if Float.abs dre >= Float.abs dim then begin
      let r = dim /. dre in
      let d = dre +. (r *. dim) in
      wre.(k) <- (nre +. (r *. nim)) /. d;
      wim.(k) <- (nim -. (r *. nre)) /. d
    end
    else begin
      let r = dre /. dim in
      let d = dim +. (r *. dre) in
      wre.(k) <- ((r *. nre) +. nim) /. d;
      wim.(k) <- ((r *. nim) -. nre) /. d
    end
  done;
  (* L^T w = w (unit diagonal), descending *)
  for k = n - 1 downto 0 do
    let accre = ref wre.(k) and accim = ref wim.(k) in
    for p = f.zl_colptr.(k) to f.zl_colptr.(k + 1) - 1 do
      let r = f.zl_rowind.(p) in
      let lre = f.zl_re.(p) and lim = f.zl_im.(p) in
      accre := !accre -. ((lre *. wre.(r)) -. (lim *. wim.(r)));
      accim := !accim -. ((lre *. wim.(r)) +. (lim *. wre.(r)))
    done;
    wre.(k) <- !accre;
    wim.(k) <- !accim
  done

let zsolve_hermitian_dense (f : zfactor) (b : Pmtbr_la.Mat.t) : Complex.t array array =
  let n = f.zn in
  let wre = Array.make n 0.0 and wim = Array.make n 0.0 in
  Array.init b.Pmtbr_la.Mat.cols (fun jcol ->
      zsolve_hermitian_col f b jcol wre wim;
      (* x_i = conj w_{pinv i}: undo the row permutation of the transposed
         system and apply the outer conjugation in one pass *)
      let x = Array.make n Complex.zero in
      for i = 0 to n - 1 do
        x.(i) <- { Complex.re = wre.(f.zpinv.(i)); im = -.wim.(f.zpinv.(i)) }
      done;
      x)

(* Solve (sE - A) X = B for a dense real B; returns the complex columns. *)
let solve_dense (f : factor) (b : Pmtbr_la.Mat.t) =
  let n = b.Pmtbr_la.Mat.rows in
  Array.init b.Pmtbr_la.Mat.cols (fun j ->
      let rhs = Array.init n (fun i -> { Complex.re = Pmtbr_la.Mat.get b i j; im = 0.0 }) in
      Sparse_lu.C.solve_vec f rhs)

(* Solve (sE - A)^H X = B, used for the observability samples of the
   cross-Gramian method: (sE - A)^H = conj(s) E^T - A^T for real E, A. *)
let solve_hermitian_dense (f : factor) (b : Pmtbr_la.Mat.t) =
  let n = b.Pmtbr_la.Mat.rows in
  Array.init b.Pmtbr_la.Mat.cols (fun j ->
      let rhs = Array.init n (fun i -> { Complex.re = Pmtbr_la.Mat.get b i j; im = 0.0 }) in
      (* (sE-A)^H x = b  <=>  conj((sE-A)^T conj(x)) = b *)
      let rhs_conj = Array.map Complex.conj rhs in
      let y = Sparse_lu.C.solve_transposed_vec f rhs_conj in
      Array.map Complex.conj y)
