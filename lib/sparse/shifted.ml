(* Factorisation of the shifted pencil (s E - A) for complex s, assembled
   from real triplet accumulators.  This is the inner kernel of PMTBR: one
   complex sparse factorisation per frequency sample. *)

type pencil = { e : Triplet.t; a : Triplet.t; n : int }

let pencil ~e ~a =
  let re, ce = Triplet.dims e and ra, ca = Triplet.dims a in
  let n = max (max re ce) (max ra ca) in
  assert (re <= n && ce <= n && ra <= n && ca <= n);
  { e; a; n }

(* A complex sparse LU P (sE - A) Q = L U with the values held in
   parallel re/im float arrays.  A [Complex.t array] is an array of
   pointers to two-float records, so a loop over one pays an allocation
   per multiply and a cache miss per load; OCaml unboxes float arrays, so
   on this layout the factorisation, the per-shift replay and the solves
   run allocation-free.  L is unit-lower (diagonal implicit) and U is its
   strict upper part plus the pivots [zd_*], both in pivot coordinates;
   [zpinv] maps original rows to pivot positions, [zq] lists the
   original column eliminated at each step, and U columns are stored in
   ascending pivot order. *)
type factor = {
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

let nnz f = f.zl_colptr.(f.zn) + f.zu_colptr.(f.zn) + f.zn

(* One pivoting Gilbert-Peierls factorisation of (sE - A) in the column
   order [q], read straight off the union pattern's coefficient planes
   (the value at shift s is s*e - a) into the unboxed factor.  It
   performs the scalar-generic LU at Complex.t operation for operation:
   the same reach (Sparse_lu.reach), the same scatter, update order and
   zero skip, the pivot of largest modulus (Float.hypot is Complex.norm)
   with ties to the earliest reached row, Smith's division (Complex.div)
   and U columns sorted ascending — so pivots, structure and values are
   the boxed factor's bit for bit.  L and U grow in arenas; nothing is
   allocated per column. *)
let factor_at ~n ~colptr ~rowind ~e_coef ~a_coef ~q (s : Complex.t) : factor =
  let sre = s.Complex.re and sim = s.Complex.im in
  let pinv = Array.make n (-1) and prow = Array.make n 0 in
  let cap = max 16 (Array.length rowind) in
  let l_colptr = Array.make (n + 1) 0 and u_colptr = Array.make (n + 1) 0 in
  let l_rowind = ref (Array.make cap 0) in
  let l_re = ref (Array.make cap 0.0) and l_im = ref (Array.make cap 0.0) in
  let u_rowind = ref (Array.make cap 0) in
  let u_re = ref (Array.make cap 0.0) and u_im = ref (Array.make cap 0.0) in
  let d_re = Array.make n 0.0 and d_im = Array.make n 0.0 in
  let xre = Array.make n 0.0 and xim = Array.make n 0.0 in
  let mark = Array.make n (-1) in
  let topo = Array.make n 0 and stack = Array.make n 0 and child_pos = Array.make n 0 in
  for k = 0 to n - 1 do
    let jcol = q.(k) in
    let nz =
      Sparse_lu.reach ~colptr ~rowind jcol ~l_colptr ~l_rowind:!l_rowind ~pinv ~mark ~stamp:k
        ~topo ~stack ~child_pos
    in
    (* scatter the shifted column s*e - a *)
    for t = 0 to nz - 1 do
      let i = topo.(t) in
      xre.(i) <- 0.0;
      xim.(i) <- 0.0
    done;
    for p = colptr.(jcol) to colptr.(jcol + 1) - 1 do
      let i = rowind.(p) in
      xre.(i) <- (sre *. e_coef.(p)) -. a_coef.(p);
      xim.(i) <- sim *. e_coef.(p)
    done;
    (* sparse triangular solve in topological order (topo holds it
       reversed, so walk backwards) *)
    let lr = !l_rowind and lre = !l_re and lim = !l_im in
    for t = nz - 1 downto 0 do
      let i = topo.(t) in
      let piv = pinv.(i) in
      if piv >= 0 then begin
        let xire = xre.(i) and xiim = xim.(i) in
        if xire <> 0.0 || xiim <> 0.0 then
          for p = l_colptr.(piv) to l_colptr.(piv + 1) - 1 do
            let r = lr.(p) in
            let vre = lre.(p) and vim = lim.(p) in
            xre.(r) <- xre.(r) -. ((vre *. xire) -. (vim *. xiim));
            xim.(r) <- xim.(r) -. ((vre *. xiim) +. (vim *. xire))
          done
      end
    done;
    (* partial pivoting among non-pivotal rows *)
    let pivrow = ref (-1) and pivmag = ref 0.0 in
    for t = 0 to nz - 1 do
      let i = topo.(t) in
      if pinv.(i) < 0 then begin
        let m = Float.hypot xre.(i) xim.(i) in
        if m > !pivmag then begin
          pivmag := m;
          pivrow := i
        end
      end
    done;
    if !pivrow < 0 || !pivmag = 0.0 then raise (Sparse_lu.Singular k);
    let pre = xre.(!pivrow) and pim = xim.(!pivrow) in
    pinv.(!pivrow) <- k;
    prow.(k) <- !pivrow;
    d_re.(k) <- pre;
    d_im.(k) <- pim;
    (* distribute entries into U (pivotal rows) and L (the rest, divided
       by the pivot) *)
    let l0 = l_colptr.(k) and u0 = u_colptr.(k) in
    l_rowind := Sparse_lu.grow_int !l_rowind (l0 + nz);
    l_re := Sparse_lu.grow_float !l_re (l0 + nz);
    l_im := Sparse_lu.grow_float !l_im (l0 + nz);
    u_rowind := Sparse_lu.grow_int !u_rowind (u0 + nz);
    u_re := Sparse_lu.grow_float !u_re (u0 + nz);
    u_im := Sparse_lu.grow_float !u_im (u0 + nz);
    let lr = !l_rowind and lre = !l_re and lim = !l_im in
    let ur = !u_rowind and ure = !u_re and uim = !u_im in
    let lp = ref l0 and up = ref u0 in
    let smith = Float.abs pre >= Float.abs pim in
    let r = if smith then pim /. pre else pre /. pim in
    let d = if smith then pre +. (r *. pim) else pim +. (r *. pre) in
    for t = 0 to nz - 1 do
      let i = topo.(t) in
      let piv = pinv.(i) in
      if piv >= 0 && piv < k then begin
        ur.(!up) <- piv;
        incr up
      end
      else if i <> !pivrow then begin
        let nre = xre.(i) and nim = xim.(i) in
        lr.(!lp) <- i;
        if smith then begin
          lre.(!lp) <- (nre +. (r *. nim)) /. d;
          lim.(!lp) <- (nim -. (r *. nre)) /. d
        end
        else begin
          lre.(!lp) <- ((r *. nre) +. nim) /. d;
          lim.(!lp) <- ((r *. nim) -. nre) /. d
        end;
        incr lp
      end
    done;
    Sparse_lu.sort_range ur u0 !up;
    for p = u0 to !up - 1 do
      let i = prow.(ur.(p)) in
      ure.(p) <- xre.(i);
      uim.(p) <- xim.(i)
    done;
    l_colptr.(k + 1) <- !lp;
    u_colptr.(k + 1) <- !up
  done;
  (* renumber L's rows into pivot coordinates *)
  let nl = l_colptr.(n) and nu = u_colptr.(n) in
  let l_rowind = Array.sub !l_rowind 0 nl in
  for p = 0 to nl - 1 do
    l_rowind.(p) <- pinv.(l_rowind.(p))
  done;
  {
    zn = n;
    zl_colptr = l_colptr;
    zl_rowind = l_rowind;
    zl_re = Array.sub !l_re 0 nl;
    zl_im = Array.sub !l_im 0 nl;
    zu_colptr = u_colptr;
    zu_rowind = Array.sub !u_rowind 0 nu;
    zu_re = Array.sub !u_re 0 nu;
    zu_im = Array.sub !u_im 0 nu;
    zd_re = d_re;
    zd_im = d_im;
    zpinv = pinv;
    zq = q;
  }

(* ------------------------------------------------------------------ *)
(* Multi-shift handle: symbolic work shared across all shifts           *)
(* ------------------------------------------------------------------ *)

(* The nonzero pattern of (sE - A) is the same for every s, so a sweep over
   many shifts should pay for the pattern assembly (triplet sort + merge),
   the fill-reducing ordering and the elimination analysis exactly once.
   [multi] stores the union pattern with separate E and A coefficient
   planes — the numeric matrix at shift s is just values[k] = s*e[k] - a[k]
   — plus a template factorisation whose pivots and structure every other
   shift replays (its values are never read). *)
type multi = {
  n : int;
  colptr : int array;
  rowind : int array;
  e_coef : float array;
  a_coef : float array;
  q : int array; (* column elimination order, computed once *)
  pick : Ordering.pick option; (* the default rule's choice and its evidence *)
  template : factor;
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
  let merged = ref [] in
  Array.iter
    (fun (i, j, ev, av) ->
      match !merged with
      | (i', j', ev', av') :: rest when i = i' && j = j' ->
          merged := (i, j, ev +. ev', av +. av') :: rest
      | _ -> merged := (i, j, ev, av) :: !merged)
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

(* Factor (sE - A) once: plane assembly, ordering, the flat kernel. *)
let factorize ?(ordering = Ordering.Lower_fill) (p : pencil) (s : Complex.t) : factor =
  let colptr, rowind, e_coef, a_coef = assemble_pattern p in
  let q = Ordering.compute ordering colptr rowind p.n in
  factor_at ~n:p.n ~colptr ~rowind ~e_coef ~a_coef ~q s

let prepare ?(ordering = Ordering.Lower_fill) (p : pencil) ~(template : Complex.t) =
  let colptr, rowind, e_coef, a_coef = assemble_pattern p in
  let q, pick =
    match ordering with
    | Ordering.Lower_fill -> Ordering.lower_fill colptr rowind p.n |> fun (q, k) -> (q, Some k)
    | o -> (Ordering.compute o colptr rowind p.n, None)
  in
  let template = factor_at ~n:p.n ~colptr ~rowind ~e_coef ~a_coef ~q template in
  { n = p.n; colptr; rowind; e_coef; a_coef; q; pick; template }

let ordering m = m.pick

(* Reused pivots are declared stale below this magnitude relative to their
   eliminated column; the shift then pays for a fresh pivoting
   factorisation instead of losing accuracy silently. *)
let refactor_pivot_tol = 1e-10

(* ------------------------------------------------------------------ *)
(* Unboxed per-shift replay and solves                                   *)
(* ------------------------------------------------------------------ *)

exception Stale_pivot

(* Numeric-only replay of the template elimination at shift s: same column
   ordering, same pivot sequence, same L/U pattern, new values.  The
   per-shift values s*e - a are scattered straight from the coefficient
   planes and the update loop runs on float arrays.  For pivot column k
   the template's U rows (ascending) list exactly the pivotal columns
   j < k whose L columns update column k, and its L rows give the fill
   pattern of the update target; replaying those updates in ascending j
   order is a valid left-looking schedule.  Pivots are reused, not
   re-chosen, so a pivot that fails the [refactor_pivot_tol]-relative
   test against its eliminated column (exact zeros always fail) raises
   [Stale_pivot].  Division is Smith's algorithm, matching Complex.div. *)
let replay (m : multi) (s : Complex.t) : factor =
  let t = m.template in
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
        invalid_arg "Shifted.replay: matrix pattern differs from the template";
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

let refactor (m : multi) (s : Complex.t) : factor =
  try replay m s
  with Stale_pivot ->
    (* fresh pivot search at this shift; still raises Sparse_lu.Singular
       if (sE - A) is genuinely singular *)
    factor_at ~n:m.n ~colptr:m.colptr ~rowind:m.rowind ~e_coef:m.e_coef ~a_coef:m.a_coef ~q:m.q s

(* Forward/backward substitution on the unboxed factor for one real
   right-hand-side column, into the caller's float workspaces. *)
let solve_col (f : factor) (b : Pmtbr_la.Mat.t) jcol (wre : float array) (wim : float array) =
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

let solve_dense (f : factor) (b : Pmtbr_la.Mat.t) : Complex.t array array =
  let n = f.zn in
  let wre = Array.make n 0.0 and wim = Array.make n 0.0 in
  Array.init b.Pmtbr_la.Mat.cols (fun jcol ->
      solve_col f b jcol wre wim;
      (* x = Q w: undo the column permutation while boxing the output *)
      let x = Array.make n Complex.zero in
      for k = 0 to n - 1 do
        x.(f.zq.(k)) <- { Complex.re = wre.(k); im = wim.(k) }
      done;
      x)

(* (sE - A)^H x = b for real b: conj ((sE - A)^T conj x) = b, so run the
   transposed solve on the (real) rhs and conjugate the result. *)
let hermitian_col (f : factor) (b : Pmtbr_la.Mat.t) jcol (wre : float array) (wim : float array)
    =
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

let solve_hermitian_dense (f : factor) (b : Pmtbr_la.Mat.t) : Complex.t array array =
  let n = f.zn in
  let wre = Array.make n 0.0 and wim = Array.make n 0.0 in
  Array.init b.Pmtbr_la.Mat.cols (fun jcol ->
      hermitian_col f b jcol wre wim;
      (* x_i = conj w_{pinv i}: undo the row permutation of the transposed
         system and apply the outer conjugation in one pass *)
      let x = Array.make n Complex.zero in
      for i = 0 to n - 1 do
        x.(i) <- { Complex.re = wre.(f.zpinv.(i)); im = -.wim.(f.zpinv.(i)) }
      done;
      x)
