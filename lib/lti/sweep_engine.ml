(* Two-tier parallel frequency-sweep engine.

   Tier 1 (sparse full models): one Shifted pencil handle per plan, the
   symbolic analysis done once; every grid point is a numeric
   refactorisation replay plus a triangular solve, and the output fold
   C * z runs through Par_kernel on a realified column block.

   Tier 2 (dense reduced models): a one-time real orthogonal
   Hessenberg-triangular reduction Q^T (sE - A) Z = s T - H (Moler-Stewart
   / QZ step 1), after which every grid point is an O(q^2) Hessenberg
   elimination instead of an O(q^3) dense LU:

     H(s) = C (sE - A)^{-1} B = (C Z) (s T - H)^{-1} (Q^T B)

   with s T - H upper Hessenberg for every s.

   Grid points fan out across a domain pool with the same chunked
   atomic-counter queue as Shift_engine, under the same contract: each
   response is a pure function of (plan, s), results are assembled in
   grid order, and a worker failure is re-raised deterministically (the
   one at the lowest grid index wins).  Serial and parallel sweeps are
   bitwise identical. *)

open Pmtbr_la

type sparse_plan = { ms : Dss.multi_shift; b : Mat.t; c : Mat.t; n : int }

type hess_plan = {
  hh : Mat.t;  (* upper Hessenberg Q^T A Z *)
  tt : Mat.t;  (* upper triangular Q^T E Z *)
  qtb : Mat.t;  (* Q^T B *)
  cz : Mat.t;  (* C Z *)
  n : int;
}

type t = Sparse_plan of sparse_plan | Hess_plan of hess_plan
type tier = Replay | Hessenberg

type stats = {
  points : int;
  workers : int;
  factor_s : float;
  solve_s : float;
  wall_s : float;
  busy_s : float array;
}

let default_workers () = Domain.recommended_domain_count ()

let utilisation st =
  if st.wall_s <= 0.0 || Array.length st.busy_s = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 st.busy_s /. (st.wall_s *. float_of_int (Array.length st.busy_s))

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Hessenberg-triangular reduction (dense tier, prepare time)          *)
(* ------------------------------------------------------------------ *)

(* Givens rotation (c, s) with c*y - s*x = 0 for the pair (x, y), i.e.
   the rotation that zeroes the second component. *)
let givens x y =
  if y = 0.0 then (1.0, 0.0)
  else
    let r = Float.hypot x y in
    (x /. r, y /. r)

(* Apply [c s; -s c] to rows (i1, i2) of m, from column j0 on. *)
let row_rot (m : Mat.t) i1 i2 c s j0 =
  for j = j0 to m.Mat.cols - 1 do
    let x = Mat.get m i1 j and y = Mat.get m i2 j in
    Mat.set m i1 j ((c *. x) +. (s *. y));
    Mat.set m i2 j ((c *. y) -. (s *. x))
  done

(* Post-multiply m by the rotation on columns (j1, j2), rows 0 .. i_hi. *)
let col_rot (m : Mat.t) j1 j2 c s i_hi =
  for i = 0 to i_hi do
    let x = Mat.get m i j1 and y = Mat.get m i j2 in
    Mat.set m i j1 ((c *. x) +. (s *. y));
    Mat.set m i j2 ((c *. y) -. (s *. x))
  done

(* Golub & Van Loan Alg. 7.7.1: QR-factor E, then chase A down to upper
   Hessenberg with row rotations while keeping T triangular with column
   rotations.  Q is never materialised (it only ever hits B); Z is
   accumulated because both C and the states need it. *)
let hess_prepare ~(e : Mat.t) ~(a : Mat.t) ~(b : Mat.t) ~(c : Mat.t) =
  let n = a.Mat.rows in
  if n = 0 then { hh = a; tt = e; qtb = Mat.create 0 b.Mat.cols; cz = c; n }
  else begin
    let f = Qr.factorize e in
    let tt = Qr.r_factor f in
    let hh = Qr.apply_qt f a in
    let qtb = Qr.apply_qt f b in
    let zacc = Mat.identity n in
    for j = 0 to n - 3 do
      for i = n - 1 downto j + 2 do
        (* zero hh(i, j) with a rotation of rows (i-1, i) *)
        let x = Mat.get hh (i - 1) j and y = Mat.get hh i j in
        if y <> 0.0 then begin
          let cr, sr = givens x y in
          row_rot hh (i - 1) i cr sr j;
          Mat.set hh i j 0.0;
          row_rot tt (i - 1) i cr sr (i - 1);
          row_rot qtb (i - 1) i cr sr 0;
          (* the row rotation filled tt(i, i-1); restore triangularity
             with a rotation of columns (i-1, i) *)
          let fill = Mat.get tt i (i - 1) in
          if fill <> 0.0 then begin
            let cc, sc = givens (Mat.get tt i i) (-.fill) in
            col_rot tt (i - 1) i cc sc i;
            Mat.set tt i (i - 1) 0.0;
            col_rot hh (i - 1) i cc sc (n - 1);
            col_rot zacc (i - 1) i cc sc (n - 1)
          end
        end
      done
    done;
    { hh; tt; qtb; cz = Mat.mul c zacc; n }
  end

(* ------------------------------------------------------------------ *)
(* Hessenberg per-point solve (dense tier, O(q^2) per grid point)      *)
(* ------------------------------------------------------------------ *)

(* Smith's componentwise-robust complex division a / b on float pairs. *)
let cdiv are aim bre bim =
  if Float.abs bre >= Float.abs bim then begin
    let r = bim /. bre in
    let d = bre +. (bim *. r) in
    ((are +. (aim *. r)) /. d, (aim -. (are *. r)) /. d)
  end
  else begin
    let r = bre /. bim in
    let d = (bre *. r) +. bim in
    (((are *. r) +. aim) /. d, ((aim *. r) -. are) /. d)
  end

let hess_eval (p : hess_plan) (s : Complex.t) =
  let n = p.n in
  let p_in = p.qtb.Mat.cols and p_out = p.cz.Mat.rows in
  if n = 0 then Cmat.create p_out p_in
  else begin
    (* M = s T - H on the Hessenberg band, unboxed re/im planes *)
    let mre = Array.make (n * n) 0.0 and mim = Array.make (n * n) 0.0 in
    for i = 0 to n - 1 do
      for j = max 0 (i - 1) to n - 1 do
        let k = (i * n) + j in
        let tv = Mat.get p.tt i j in
        mre.(k) <- (s.Complex.re *. tv) -. Mat.get p.hh i j;
        mim.(k) <- s.Complex.im *. tv
      done
    done;
    let yre = Array.init p_in (fun jc -> Array.init n (fun i -> Mat.get p.qtb i jc)) in
    let yim = Array.init p_in (fun _ -> Array.make n 0.0) in
    (* eliminate the single subdiagonal with partial pivoting: at step k
       only rows k and k+1 can pivot, so a swap keeps the profile *)
    for k = 0 to n - 2 do
      let dk = (k * n) + k and sk = ((k + 1) * n) + k in
      if Float.hypot mre.(sk) mim.(sk) > Float.hypot mre.(dk) mim.(dk) then begin
        for j = k to n - 1 do
          let a = (k * n) + j and b = ((k + 1) * n) + j in
          let tr = mre.(a) and ti = mim.(a) in
          mre.(a) <- mre.(b);
          mim.(a) <- mim.(b);
          mre.(b) <- tr;
          mim.(b) <- ti
        done;
        for jc = 0 to p_in - 1 do
          let yr = yre.(jc) and yi = yim.(jc) in
          let tr = yr.(k) and ti = yi.(k) in
          yr.(k) <- yr.(k + 1);
          yi.(k) <- yi.(k + 1);
          yr.(k + 1) <- tr;
          yi.(k + 1) <- ti
        done
      end;
      let dre = mre.(dk) and dim = mim.(dk) in
      if dre = 0.0 && dim = 0.0 then raise (Cmat.Singular k);
      let sre = mre.(sk) and sim = mim.(sk) in
      if sre <> 0.0 || sim <> 0.0 then begin
        let lre, lim = cdiv sre sim dre dim in
        mre.(sk) <- 0.0;
        mim.(sk) <- 0.0;
        for j = k + 1 to n - 1 do
          let a = (k * n) + j and b = ((k + 1) * n) + j in
          mre.(b) <- mre.(b) -. ((lre *. mre.(a)) -. (lim *. mim.(a)));
          mim.(b) <- mim.(b) -. ((lre *. mim.(a)) +. (lim *. mre.(a)))
        done;
        for jc = 0 to p_in - 1 do
          let yr = yre.(jc) and yi = yim.(jc) in
          let br = yr.(k) and bi = yi.(k) in
          yr.(k + 1) <- yr.(k + 1) -. ((lre *. br) -. (lim *. bi));
          yi.(k + 1) <- yi.(k + 1) -. ((lre *. bi) +. (lim *. br))
        done
      end
    done;
    if mre.(((n - 1) * n) + n - 1) = 0.0 && mim.(((n - 1) * n) + n - 1) = 0.0 then
      raise (Cmat.Singular (n - 1));
    (* back substitution, per input column *)
    for jc = 0 to p_in - 1 do
      let yr = yre.(jc) and yi = yim.(jc) in
      for i = n - 1 downto 0 do
        let sr = ref yr.(i) and si = ref yi.(i) in
        for j = i + 1 to n - 1 do
          let k = (i * n) + j in
          sr := !sr -. ((mre.(k) *. yr.(j)) -. (mim.(k) *. yi.(j)));
          si := !si -. ((mre.(k) *. yi.(j)) +. (mim.(k) *. yr.(j)))
        done;
        let xr, xi = cdiv !sr !si mre.((i * n) + i) mim.((i * n) + i) in
        yr.(i) <- xr;
        yi.(i) <- xi
      done
    done;
    (* H(s) = (C Z) * y : small real-by-complex product *)
    Cmat.init p_out p_in (fun i jc ->
        let yr = yre.(jc) and yi = yim.(jc) in
        let ar = ref 0.0 and ai = ref 0.0 in
        for k = 0 to n - 1 do
          let cv = Mat.get p.cz i k in
          ar := !ar +. (cv *. yr.(k));
          ai := !ai +. (cv *. yi.(k))
        done;
        { Complex.re = !ar; im = !ai })
  end

(* ------------------------------------------------------------------ *)
(* Sparse per-point solve (replay tier)                                *)
(* ------------------------------------------------------------------ *)

(* Fold C through the solution block with the Par_kernel GEMM on a
   realified n x 2p column block [Re z_0, Im z_0, Re z_1, ...].  The real
   accumulation over a column of interleaved parts visits the same
   addends in the same (ascending-k) order as the naive complex loop in
   [Freq.eval], and partial sums starting from +0.0 can never produce
   -0.0 on finite data, so the result is bitwise-identical to the boxed
   reference.  The pool workers each hold one grid point, so the GEMM
   itself stays on this domain. *)
let sparse_output (p : sparse_plan) (z : Complex.t array array) =
  let p_in = Array.length z in
  let zr =
    Mat.init p.n (2 * p_in) (fun i j ->
        let zc = z.(j / 2).(i) in
        if j land 1 = 0 then zc.Complex.re else zc.Complex.im)
  in
  let g = Par_kernel.mul ~workers:1 p.c zr in
  Cmat.init p.c.Mat.rows p_in (fun i j ->
      { Complex.re = Mat.get g i (2 * j); im = Mat.get g i ((2 * j) + 1) })

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let prepare ?template (sys : Dss.t) =
  match sys with
  | Dss.Sparse _ ->
      Sparse_plan
        {
          ms = Dss.multi_shift ?template sys;
          b = Dss.b_matrix sys;
          c = Dss.c_matrix sys;
          n = Dss.order sys;
        }
  | Dss.Dense { e; a; b; c } -> Hess_plan (hess_prepare ~e ~a ~b ~c)

let tier = function Sparse_plan _ -> Replay | Hess_plan _ -> Hessenberg

(* One grid point.  Pure in (plan, s); timings are observational only. *)
let eval_timed plan (s : Complex.t) ~factor_acc ~solve_acc =
  match plan with
  | Sparse_plan p ->
      let t0 = now () in
      let f = Dss.multi_factor p.ms ~hermitian:false s in
      let t1 = now () in
      let z = Dss.multi_solve_factored f ~hermitian:false p.b in
      let h = sparse_output p z in
      let t2 = now () in
      factor_acc := !factor_acc +. (t1 -. t0);
      solve_acc := !solve_acc +. (t2 -. t1);
      h
  | Hess_plan p ->
      let t0 = now () in
      let h = hess_eval p s in
      solve_acc := !solve_acc +. (now () -. t0);
      h

let eval plan s =
  let dead = ref 0.0 in
  eval_timed plan s ~factor_acc:dead ~solve_acc:dead

let eval_jw plan omega = eval plan { Complex.re = 0.0; im = omega }

(* ------------------------------------------------------------------ *)
(* The worker pool                                                     *)
(* ------------------------------------------------------------------ *)

(* Replay points cost a sparse refactorisation each (ms scale) — chunk 1
   keeps the queue balanced; Hessenberg points are microseconds, so a
   larger default grab amortises the atomic traffic.  Both defaults are
   shape-only, so they cannot perturb results. *)
let default_chunk = function Sparse_plan _ -> 1 | Hess_plan _ -> 16

(* Evaluate grid indices [lo, hi) into a fresh array (slot [k] holds
   point [lo + k]), fanning across the pool. *)
let run_block ?workers ?(oversubscribe = false) ?chunk plan (omegas : float array) lo hi =
  let nt = hi - lo in
  let chunk = match chunk with Some c -> c | None -> default_chunk plan in
  if chunk < 1 then invalid_arg "Sweep_engine: chunk must be >= 1";
  let requested =
    match workers with Some w when w >= 1 -> w | Some _ | None -> default_workers ()
  in
  let cap = if oversubscribe then requested else min requested (default_workers ()) in
  let nw = max 1 (min cap nt) in
  let out : Cmat.t array = Array.make nt (Cmat.create 0 0) in
  let failures : (int * exn) option array = Array.make nw None in
  let factor_t = Array.make nw 0.0
  and solve_t = Array.make nw 0.0
  and busy_t = Array.make nw 0.0
  and n_done = Array.make nw 0 in
  let next = Atomic.make 0 in
  let work wid =
    let factor_acc = ref 0.0 and solve_acc = ref 0.0 in
    let solved = ref 0 in
    let t_in = now () in
    let running = ref true in
    while !running do
      let start = Atomic.fetch_and_add next chunk in
      if start >= nt || failures.(wid) <> None then running := false
      else
        for k = start to min nt (start + chunk) - 1 do
          if failures.(wid) = None then
            match
              eval_timed plan
                { Complex.re = 0.0; im = omegas.(lo + k) }
                ~factor_acc ~solve_acc
            with
            | h ->
                out.(k) <- h;
                incr solved
            | exception e -> failures.(wid) <- Some (k, e)
        done
    done;
    factor_t.(wid) <- !factor_acc;
    solve_t.(wid) <- !solve_acc;
    n_done.(wid) <- !solved;
    busy_t.(wid) <- now () -. t_in
  in
  let t_start = now () in
  if nw = 1 then work 0
  else begin
    let domains = Array.init nw (fun wid -> Domain.spawn (fun () -> work wid)) in
    Array.iter Domain.join domains
  end;
  let wall = now () -. t_start in
  let first_failure =
    Array.fold_left
      (fun acc f ->
        match (acc, f) with
        | None, f -> f
        | Some _, None -> acc
        | Some (i, _), Some (j, _) -> if j < i then f else acc)
      None failures
  in
  (match first_failure with Some (_, e) -> raise e | None -> ());
  ( out,
    {
      points = Array.fold_left ( + ) 0 n_done;
      workers = nw;
      factor_s = Array.fold_left ( +. ) 0.0 factor_t;
      solve_s = Array.fold_left ( +. ) 0.0 solve_t;
      wall_s = wall;
      busy_s = busy_t;
    } )

let empty_stats = { points = 0; workers = 0; factor_s = 0.0; solve_s = 0.0; wall_s = 0.0; busy_s = [||] }

let sweep ?workers ?oversubscribe ?chunk plan omegas =
  let n = Array.length omegas in
  if n = 0 then ([||], empty_stats)
  else run_block ?workers ?oversubscribe ?chunk plan omegas 0 n

(* Window size for the streaming drivers: enough points to keep every
   pool worker fed through several chunks, small enough that a window of
   responses stays cheap next to the plan itself. *)
let stream_window = 64

let fold ?workers ?oversubscribe ?chunk plan omegas ~init ~f =
  let n = Array.length omegas in
  let acc = ref init and lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + stream_window) in
    let block, _ = run_block ?workers ?oversubscribe ?chunk plan omegas !lo hi in
    for k = 0 to hi - !lo - 1 do
      acc := f !acc (!lo + k) block.(k)
    done;
    lo := hi
  done;
  !acc

let iteri ?workers ?oversubscribe ?chunk plan omegas ~f =
  fold ?workers ?oversubscribe ?chunk plan omegas ~init:() ~f:(fun () k h -> f k h)
