(* Low-rank Lyapunov solver: LR-ADI with real/complex-pair shift handling
   and Penzl-style heuristic shifts.

   Everything works through the abstract [ops] record so the same code runs
   on dense (E, A) pairs (tests) and on the sparse multi-shift machinery
   (the LTI layer).  All iterations are serial and fixed-order: results are
   bitwise-reproducible and worker-count independent by construction. *)

type ops = {
  n : int;
  mul_e : Mat.t -> Mat.t;
  mul_a : Mat.t -> Mat.t;
  solve_shift : Complex.t -> Mat.t -> Complex.t array array;
  solve_e : Mat.t -> Mat.t;
}

type stop = Residual_fro | Band_residual of (Complex.t * float) array

type stats = {
  steps : int;
  solves : int;
  columns : int;
  compressions : int;
  residuals : float array;
  converged : bool;
}

(* ---------------------------------------------------------------- helpers *)

(* The real and imaginary parts of complex solve columns as n x m blocks,
   filled by loops: a [Mat.init] closure would box each float it returns. *)
let re_block n (cols : Complex.t array array) =
  let m = Array.length cols in
  let z = Mat.create n m in
  for j = 0 to m - 1 do
    let col = cols.(j) in
    for i = 0 to n - 1 do
      z.Mat.data.((i * m) + j) <- col.(i).Complex.re
    done
  done;
  z

let im_block n (cols : Complex.t array array) =
  let m = Array.length cols in
  let z = Mat.create n m in
  for j = 0 to m - 1 do
    let col = cols.(j) in
    for i = 0 to n - 1 do
      z.Mat.data.((i * m) + j) <- col.(i).Complex.im
    done
  done;
  z

(* A shift is treated as real when its imaginary part is negligible against
   its (strictly negative) real part. *)
let is_effectively_real (p : Complex.t) =
  Float.abs p.Complex.im <= 1e-300 +. (1e-12 *. Float.abs p.Complex.re)

(* ||W W^T||_F computed as ||W^T W||_F: the Gram matrix is m x m for an
   n x m factor, so the residual norm costs O(n m^2) per step. *)
let low_rank_fro (w : Mat.t) = Mat.frobenius (Mat.gram w)

let check_weights pts =
  Array.iter
    (fun (_, w) ->
      if not (w >= 0.0) then
        invalid_arg "Lr_lyap.Band_residual: weights must be non-negative")
    pts

(* Band-limited residual functional of arXiv 2411.13571: sample the residual
   factor through the resolvent on the frequency band of interest.  The
   solves go through [ops.solve_shift] at p = -s, i.e. (A - s E)^{-1}, which
   spans the same factor cache the ADI shifts use. *)
let band_residual_counted ops ~solves pts (w : Mat.t) =
  check_weights pts;
  if w.Mat.cols = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iter
      (fun ((s : Complex.t), weight) ->
        let cols = ops.solve_shift (Complex.neg s) w in
        incr solves;
        let sq = ref 0.0 in
        Array.iter
          (fun col ->
            Array.iter (fun z -> sq := !sq +. Complex.norm2 z) col)
          cols;
        acc := !acc +. (weight *. !sq))
      pts;
    sqrt !acc
  end

(* ------------------------------------------------------- shift selection *)

(* Arnoldi with twice-applied modified Gram-Schmidt; returns the square
   Hessenberg section whose eigenvalues are the Ritz values.  [apply] maps a
   vector to a vector. *)
let arnoldi ~apply ~steps (v0 : float array) =
  let nrm0 = Vec.norm2 v0 in
  if nrm0 <= 1e-300 then Mat.create 0 0
  else begin
    let basis = Array.make (steps + 1) [||] in
    basis.(0) <- Vec.scale (1.0 /. nrm0) v0;
    let h = Array.make_matrix (steps + 1) steps 0.0 in
    let completed = ref 0 and stop = ref false in
    let j = ref 0 in
    while (not !stop) && !j < steps do
      let w = apply basis.(!j) in
      for _pass = 1 to 2 do
        for i = 0 to !j do
          let c = Vec.dot basis.(i) w in
          h.(i).(!j) <- h.(i).(!j) +. c;
          Vec.axpy (-.c) basis.(i) w
        done
      done;
      let nrm = Vec.norm2 w in
      h.(!j + 1).(!j) <- nrm;
      completed := !j + 1;
      if nrm <= 1e-12 *. Float.max 1.0 nrm0 then stop := true
      else begin
        basis.(!j + 1) <- Vec.scale (1.0 /. nrm) w;
        incr j
      end
    done;
    let k = !completed in
    Mat.init k k (fun i j -> h.(i).(j))
  end

let ritz_values ~apply ~steps v0 =
  let h = arnoldi ~apply ~steps v0 in
  if h.Mat.rows = 0 then [||] else Cschur.eigenvalues (Cschur.of_real h)

(* The ADI rational function factor contributed by shift p at a spectral
   point t: |t - conj p| / |t + p|, doubled with the conjugate twin when p
   is complex (shifts are applied in conjugate pairs). *)
let adi_factor (p : Complex.t) (t : Complex.t) =
  let quot num den = Complex.norm num /. Float.max 1e-300 (Complex.norm den) in
  let f = quot (Complex.sub t (Complex.conj p)) (Complex.add t p) in
  if is_effectively_real p then f
  else f *. quot (Complex.sub t p) (Complex.add t (Complex.conj p))

let penzl_shifts_counted ?(num = 16) ?(ritz = 12) ~solves ops (b : Mat.t) =
  if num < 1 then invalid_arg "Lr_lyap.penzl_shifts: num must be positive";
  let n = ops.n in
  (* A deterministic, B-independent start vector keeps the selection stable
     across right-hand sides; fall back to e_1 when B is all zeros. *)
  let v0 =
    let v = Vec.zeros n in
    for j = 0 to b.Mat.cols - 1 do
      for i = 0 to n - 1 do
        v.(i) <- v.(i) +. Mat.get b i j
      done
    done;
    if Vec.norm2 v <= 1e-300 && n > 0 then v.(0) <- 1.0;
    v
  in
  (* an n x 1 matrix's data is its column *)
  let as_mat v = { Mat.rows = n; cols = 1; data = Array.copy v } in
  (* Large-magnitude end of the spectrum: Ritz values of F = E^{-1} A. *)
  let apply_f v = Mat.col (ops.solve_e (ops.mul_a (as_mat v))) 0 in
  (* Small-magnitude end: reciprocals of Ritz values of F^{-1} = A^{-1} E;
     p = 0 turns the shifted solve into a plain A^{-1}. *)
  let apply_finv v =
    let cols = ops.solve_shift Complex.zero (ops.mul_e (as_mat v)) in
    incr solves;
    (re_block n cols).Mat.data
  in
  let steps = min ritz (max 1 n) in
  let outer = ritz_values ~apply:apply_f ~steps v0 in
  let inner =
    Array.to_list (ritz_values ~apply:apply_finv ~steps v0)
    |> List.filter_map (fun mu ->
           if Complex.norm mu <= 1e-300 then None else Some (Complex.inv mu))
    |> Array.of_list
  in
  (* Stable candidates only, one representative per conjugate pair. *)
  let candidates =
    Array.to_list (Array.append outer inner)
    |> List.filter_map (fun (l : Complex.t) ->
           if not (l.Complex.re < 0.0) then None
           else if is_effectively_real l then Some { l with Complex.im = 0.0 }
           else Some { l with Complex.im = Float.abs l.Complex.im })
    |> List.sort_uniq (fun (a : Complex.t) (b : Complex.t) ->
           compare (a.Complex.re, a.Complex.im) (b.Complex.re, b.Complex.im))
  in
  (* Near-duplicates (same Ritz value seen by both Arnoldi runs) would waste
     shift slots; merge them at a relative tolerance. *)
  let candidates =
    List.fold_left
      (fun acc (l : Complex.t) ->
        let dup =
          List.exists
            (fun (m : Complex.t) ->
              Complex.norm (Complex.sub l m) <= 1e-8 *. Complex.norm l)
            acc
        in
        if dup then acc else l :: acc)
      [] candidates
    |> List.rev |> Array.of_list
  in
  if Array.length candidates = 0 then [| { Complex.re = -1.0; im = 0.0 } |]
  else begin
    (* Penzl's greedy sweep: repeatedly add the candidate where the current
       ADI rational function is worst. *)
    let chosen = ref [] and weight = ref 0 in
    let value_at t =
      List.fold_left (fun acc p -> acc *. adi_factor p t) 1.0 !chosen
    in
    (* Seed with the candidate of largest magnitude (Penzl's choice). *)
    let first =
      Array.fold_left
        (fun best l ->
          match best with
          | None -> Some l
          | Some b -> if Complex.norm l > Complex.norm b then Some l else best)
        None candidates
    in
    (match first with
    | Some p ->
        chosen := [ p ];
        weight := if is_effectively_real p then 1 else 2
    | None -> ());
    let continue_ = ref true in
    while !continue_ && !weight < num do
      let worst = ref None and worst_v = ref neg_infinity in
      Array.iter
        (fun t ->
          if not (List.mem t !chosen) then begin
            let v = value_at t in
            if v > !worst_v then begin
              worst_v := v;
              worst := Some t
            end
          end)
        candidates;
      match !worst with
      | None -> continue_ := false
      | Some p ->
          chosen := p :: !chosen;
          weight := !weight + (if is_effectively_real p then 1 else 2)
    done;
    Array.of_list (List.rev !chosen)
  end

let penzl_shifts ?num ?ritz ops b =
  penzl_shifts_counted ?num ?ritz ~solves:(ref 0) ops b

(* ----------------------------------------------------------------- LR-ADI *)

(* Rank-truncating recompression of an accumulating low-rank factor.  With
   G = Z^T Z = U diag(lam) U^T, the columns of Z U are orthogonal with norms
   sqrt(lam_i), so dropping the columns with sqrt(lam_i) below a relative
   cutoff is the optimal truncation of Z Z^T at that tolerance.  This is
   what keeps the factor near the Gramian's numerical rank on many-input
   systems, where raw ADI appends [inputs] columns per step.  [compressions]
   counts the eigendecompositions. *)
let compress_factor ~cutoff ~compressions (z : Mat.t) =
  if z.Mat.cols <= 1 then z
  else begin
    incr compressions;
    let lam, u = Eig_sym.decompose (Mat.gram z) in
    let lmax = if Array.length lam = 0 then 0.0 else Float.max 0.0 lam.(0) in
    let keep = ref 0 in
    Array.iter
      (fun l -> if l > cutoff *. cutoff *. lmax && l > 0.0 then incr keep)
      lam;
    let r = max 1 !keep in
    if r >= z.Mat.cols then z else Mat.mul z (Mat.sub_cols u 0 r)
  end

(* Assemble Z from blocks accumulated newest first, in one pass. *)
let assemble n blocks_rev =
  let blocks = List.rev blocks_rev in
  let total = List.fold_left (fun acc (b : Mat.t) -> acc + b.Mat.cols) 0 blocks in
  let z = Mat.create n total in
  let off = ref 0 in
  List.iter
    (fun (b : Mat.t) ->
      for i = 0 to n - 1 do
        Array.blit b.Mat.data (i * b.Mat.cols) z.Mat.data ((i * total) + !off)
          b.Mat.cols
      done;
      off := !off + b.Mat.cols)
    blocks;
  z

(* What the iteration has accumulated of Z Z^T so far.  A [Tall] factor
   (fewer columns than states) is recompressed at every flush.  Once the
   factor and its pending blocks reach n columns, the n x n Gramian X
   itself is smaller than the Gram of the factor, so it takes the
   factor's place ([Wide]): later flushes add each block P as P P^T and X
   is factored once at the end, with [compress_factor]'s keep rule on its
   eigenvalues. *)
type accumulator = Tall of Mat.t | Wide of Mat.t

let lr_adi ?shifts ?num_shifts ?ritz ?(tol = 1e-10) ?(max_steps = 200)
    ?(stop = Residual_fro) ops (b : Mat.t) =
  if b.Mat.rows <> ops.n then
    invalid_arg "Lr_lyap.lr_adi: right-hand side row count does not match n";
  let n = ops.n in
  let solves = ref 0 and compressions = ref 0 in
  let finish ~steps ~residuals ~converged z =
    ( z,
      {
        steps;
        solves = !solves;
        columns = z.Mat.cols;
        compressions = !compressions;
        residuals = Array.of_list (List.rev residuals);
        converged;
      } )
  in
  if n = 0 || b.Mat.cols = 0 then
    finish ~steps:0 ~residuals:[] ~converged:true (Mat.create n 0)
  else begin
    let shifts =
      match shifts with
      | Some s ->
          if Array.length s = 0 then
            invalid_arg "Lr_lyap.lr_adi: empty shift array";
          Array.iter
            (fun (p : Complex.t) ->
              if not (p.Complex.re < 0.0) then
                invalid_arg "Lr_lyap.lr_adi: shifts must have Re p < 0")
            s;
          Array.copy s
      | None -> penzl_shifts_counted ?num:num_shifts ?ritz ~solves ops b
    in
    let ns = Array.length shifts in
    let den_fro = Float.max 1e-300 (low_rank_fro b) in
    let den_stop =
      match stop with
      | Residual_fro -> den_fro
      | Band_residual pts ->
          Float.max 1e-300 (band_residual_counted ops ~solves pts b)
    in
    (* Compression cutoff on the singular values of Z, relative to the
       largest: it drops only what sits at the Gram matrix's own
       round-off floor, so the returned Gramian is unchanged to ~1e-16
       while the factor stays near the numerical rank. *)
    let cutoff = Float.max 1e-8 (0.01 *. tol) in
    let flush_at = max 16 (2 * b.Mat.cols) in
    let w = ref (Mat.copy b) in
    let acc = ref (Tall (Mat.create n 0)) in
    let pending = ref [] and pending_cols = ref 0 in
    (* P P^T as the Gram of P^T *)
    let outer p = Mat.gram (Mat.transpose p) in
    let flush () =
      (acc :=
         match !acc with
         | Tall z ->
             let z = assemble n (!pending @ [ z ]) in
             if z.Mat.cols >= n then Wide (outer z)
             else Tall (compress_factor ~cutoff ~compressions z)
         | Wide x when !pending_cols = 0 -> Wide x
         | Wide x -> Wide (Mat.add x (outer (assemble n !pending))));
      pending := [];
      pending_cols := 0
    in
    let residuals = ref [] in
    let steps = ref 0 and converged = ref false and cursor = ref 0 in
    while (not !converged) && !steps < max_steps do
      let p = shifts.(!cursor mod ns) in
      incr cursor;
      let vc = ops.solve_shift p !w in
      incr solves;
      let alpha = p.Complex.re in
      if is_effectively_real p then begin
        (* V = (A + pE)^{-1} W;  Z += sqrt(-2p) V;  W -= 2p E V. *)
        let v = re_block n vc in
        pending := Mat.scale (sqrt (-2.0 *. alpha)) v :: !pending;
        pending_cols := !pending_cols + v.Mat.cols;
        w := Mat.sub !w (Mat.scale (2.0 *. alpha) (ops.mul_e v));
        incr steps
      end
      else begin
        (* Conjugate double step in real arithmetic (Benner-Kuerschner-Saak):
           with delta = Re p / Im p,
             V'  = Re V + delta Im V,
             V'' = sqrt (delta^2 + 1) Im V,
           the pair {p, conj p} contributes 2 sqrt(-Re p) [V', V''] to Z and
           updates W -= 4 Re p * E V' — W stays real. *)
        let vr = re_block n vc and vi = im_block n vc in
        let delta = alpha /. p.Complex.im in
        let v1 = Mat.add vr (Mat.scale delta vi) in
        let v2 = Mat.scale (sqrt ((delta *. delta) +. 1.0)) vi in
        pending :=
          Mat.scale (2.0 *. sqrt (-.alpha)) (Mat.hcat v1 v2) :: !pending;
        pending_cols := !pending_cols + v1.Mat.cols + v2.Mat.cols;
        w := Mat.sub !w (Mat.scale (4.0 *. alpha) (ops.mul_e v1));
        steps := !steps + 2
      end;
      if !pending_cols >= flush_at then flush ();
      let rel_fro = low_rank_fro !w /. den_fro in
      residuals := rel_fro :: !residuals;
      (match stop with
      | Residual_fro -> if rel_fro <= tol then converged := true
      | Band_residual pts ->
          (* the band check costs a solve per sample point; run it at shift
             cycle boundaries only *)
          if !cursor mod ns = 0 || rel_fro <= tol then begin
            let rel = band_residual_counted ops ~solves pts !w /. den_stop in
            if rel <= tol then converged := true
          end)
    done;
    flush ();
    let z =
      match !acc with
      | Tall z -> z
      | Wide x ->
          incr compressions;
          (* at least one column, as [compress_factor] keeps *)
          let z = Eig_sym.psd_factor ~tol:(cutoff *. cutoff) x in
          if z.Mat.cols = 0 then Mat.create n 1 else z
    in
    finish ~steps:!steps ~residuals:!residuals ~converged:!converged z
  end
