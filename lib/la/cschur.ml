(* Complex Schur decomposition A = Q T Q^H (Q unitary, T upper triangular)
   by Householder-Hessenberg reduction followed by explicit Wilkinson-shifted
   QR iteration with Givens rotations.

   Working in complex arithmetic (even for real inputs) avoids the 2x2-block
   bookkeeping of the real Schur form; the Lyapunov/Sylvester solvers in
   [Lyap] then reduce to triangular back-substitutions. *)

exception No_convergence

type t = { q : Cmat.t; (* unitary *) tm : Cmat.t (* upper triangular *) }

let cx re im = { Complex.re; im }
let cadd = Complex.add
let csub = Complex.sub
let cmul = Complex.mul
let cdiv = Complex.div
let conj = Complex.conj
let cabs = Complex.norm

(* Unit-modulus phase of z, or 1 for z = 0. *)
let phase z = if cabs z = 0.0 then Complex.one else Cmat.real_mul (1.0 /. cabs z) z

(* Householder reduction to upper Hessenberg form; accumulates Q. *)
let hessenberg (a : Cmat.t) =
  let n = a.Cmat.rows in
  let h = Cmat.copy a in
  let q = Cmat.identity n in
  for k = 0 to n - 3 do
    (* Reflector annihilating h.(k+2 .. n-1, k). *)
    let normx = ref 0.0 in
    for i = k + 1 to n - 1 do
      let v = cabs (Cmat.get h i k) in
      normx := !normx +. (v *. v)
    done;
    let normx = sqrt !normx in
    if normx > 0.0 then begin
      let x0 = Cmat.get h (k + 1) k in
      let alpha = Cmat.real_mul (-.normx) (phase x0) in
      (* v = x - alpha e1, normalised so beta = 2 / (v^H v). *)
      let v = Array.make n Complex.zero in
      v.(k + 1) <- csub x0 alpha;
      for i = k + 2 to n - 1 do
        v.(i) <- Cmat.get h i k
      done;
      let vhv = ref 0.0 in
      for i = k + 1 to n - 1 do
        let m = cabs v.(i) in
        vhv := !vhv +. (m *. m)
      done;
      if !vhv > 0.0 then begin
        let beta = 2.0 /. !vhv in
        (* Left: h <- (I - beta v v^H) h, rows k+1.., all columns. *)
        for j = 0 to n - 1 do
          let dot = ref Complex.zero in
          for i = k + 1 to n - 1 do
            dot := cadd !dot (cmul (conj v.(i)) (Cmat.get h i j))
          done;
          let s = Cmat.real_mul beta !dot in
          for i = k + 1 to n - 1 do
            Cmat.set h i j (csub (Cmat.get h i j) (cmul s v.(i)))
          done
        done;
        (* Right: h <- h (I - beta v v^H), all rows, columns k+1... *)
        for i = 0 to n - 1 do
          let dot = ref Complex.zero in
          for j = k + 1 to n - 1 do
            dot := cadd !dot (cmul (Cmat.get h i j) v.(j))
          done;
          let s = Cmat.real_mul beta !dot in
          for j = k + 1 to n - 1 do
            Cmat.set h i j (csub (Cmat.get h i j) (cmul s (conj v.(j))))
          done
        done;
        (* Accumulate: q <- q (I - beta v v^H). *)
        for i = 0 to n - 1 do
          let dot = ref Complex.zero in
          for j = k + 1 to n - 1 do
            dot := cadd !dot (cmul (Cmat.get q i j) v.(j))
          done;
          let s = Cmat.real_mul beta !dot in
          for j = k + 1 to n - 1 do
            Cmat.set q i j (csub (Cmat.get q i j) (cmul s (conj v.(j))))
          done
        done
      end
    end;
    (* Clean the column below the subdiagonal. *)
    for i = k + 2 to n - 1 do
      Cmat.set h i k Complex.zero
    done
  done;
  (h, q)

(* Givens rotation [c s; -conj s, c] (c real) with G [a; b] = [r; 0]. *)
let givens a b =
  let na = cabs a and nb = cabs b in
  if nb = 0.0 then (1.0, Complex.zero)
  else if na = 0.0 then (0.0, Complex.one)
  else begin
    let t = sqrt ((na *. na) +. (nb *. nb)) in
    let c = na /. t in
    let s = Cmat.real_mul (1.0 /. t) (cmul (phase a) (conj b)) in
    (c, s)
  end

(* Eigenvalue of [[a, b], [c, d]] closest to d (the Wilkinson shift). *)
let wilkinson_shift a b c d =
  let tr = cadd a d in
  let det = csub (cmul a d) (cmul b c) in
  let half_tr = Cmat.real_mul 0.5 tr in
  let disc = Complex.sqrt (csub (cmul half_tr half_tr) det) in
  let l1 = cadd half_tr disc and l2 = csub half_tr disc in
  if cabs (csub l1 d) <= cabs (csub l2 d) then l1 else l2

let decompose (a : Cmat.t) =
  assert (a.Cmat.rows = a.Cmat.cols);
  let n = a.Cmat.rows in
  if n = 0 then { q = Cmat.identity 0; tm = Cmat.identity 0 }
  else begin
    let h, q = hessenberg a in
    let eps = 1e-15 in
    let hi = ref (n - 1) in
    let iter = ref 0 in
    let max_iter = 40 * n in
    while !hi > 0 do
      (* Find the active block [lo, hi]: walk up while subdiagonals are
         non-negligible. *)
      let lo = ref !hi in
      (let continue_up = ref true in
       while !continue_up && !lo > 0 do
         let sub = cabs (Cmat.get h !lo (!lo - 1)) in
         let d = cabs (Cmat.get h (!lo - 1) (!lo - 1)) +. cabs (Cmat.get h !lo !lo) in
         let d = if d = 0.0 then 1.0 else d in
         if sub <= eps *. d then begin
           Cmat.set h !lo (!lo - 1) Complex.zero;
           continue_up := false
         end
         else decr lo
       done);
      if !lo = !hi then decr hi
      else begin
        incr iter;
        if !iter > max_iter then raise No_convergence;
        let lo = !lo and hi_b = !hi in
        (* Occasional exceptional shift to break symmetry-induced cycling. *)
        let mu =
          if !iter mod 30 = 0 then
            cx (cabs (Cmat.get h hi_b (hi_b - 1)) +. cabs (Cmat.get h hi_b hi_b)) 0.0
          else
            wilkinson_shift
              (Cmat.get h (hi_b - 1) (hi_b - 1))
              (Cmat.get h (hi_b - 1) hi_b)
              (Cmat.get h hi_b (hi_b - 1))
              (Cmat.get h hi_b hi_b)
        in
        (* Explicit shifted QR step on [lo, hi_b]. *)
        for k = lo to hi_b do
          Cmat.set h k k (csub (Cmat.get h k k) mu)
        done;
        let rots = Array.make (hi_b - lo) (1.0, Complex.zero) in
        for k = lo to hi_b - 1 do
          let c, s = givens (Cmat.get h k k) (Cmat.get h (k + 1) k) in
          rots.(k - lo) <- (c, s);
          (* Left-apply to rows k, k+1 over columns k..n-1. *)
          for j = k to n - 1 do
            let hkj = Cmat.get h k j and hk1j = Cmat.get h (k + 1) j in
            Cmat.set h k j (cadd (Cmat.real_mul c hkj) (cmul s hk1j));
            Cmat.set h (k + 1) j (cadd (cmul (Complex.neg (conj s)) hkj) (Cmat.real_mul c hk1j))
          done;
          Cmat.set h (k + 1) k Complex.zero
        done;
        for k = lo to hi_b - 1 do
          let c, s = rots.(k - lo) in
          (* Right-apply G^H to columns k, k+1 over rows 0..min(k+1,hi)+1. *)
          let imax = min (k + 1) hi_b in
          for i = 0 to imax do
            let hik = Cmat.get h i k and hik1 = Cmat.get h i (k + 1) in
            Cmat.set h i k (cadd (Cmat.real_mul c hik) (cmul (conj s) hik1));
            Cmat.set h i (k + 1) (cadd (cmul (Complex.neg s) hik) (Cmat.real_mul c hik1))
          done;
          for i = 0 to n - 1 do
            let qik = Cmat.get q i k and qik1 = Cmat.get q i (k + 1) in
            Cmat.set q i k (cadd (Cmat.real_mul c qik) (cmul (conj s) qik1));
            Cmat.set q i (k + 1) (cadd (cmul (Complex.neg s) qik) (Cmat.real_mul c qik1))
          done
        done;
        for k = lo to hi_b do
          Cmat.set h k k (cadd (Cmat.get h k k) mu)
        done
      end
    done;
    (* Zero out the strictly-lower triangle left by deflations. *)
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        Cmat.set h i j Complex.zero
      done
    done;
    { q; tm = h }
  end

let eigenvalues { tm; _ } = Array.init tm.Cmat.rows (fun i -> Cmat.get tm i i)

(* Eigenvector of the triangular factor for the eigenvalue at diagonal
   position [i], mapped back through Q.  Near-equal diagonal entries are
   perturbed to keep the back-substitution bounded. *)
let eigenvector { q; tm } i =
  let n = tm.Cmat.rows in
  let lambda = Cmat.get tm i i in
  let y = Array.make n Complex.zero in
  y.(i) <- Complex.one;
  for k = i - 1 downto 0 do
    let rhs = ref Complex.zero in
    for j = k + 1 to i do
      rhs := cadd !rhs (cmul (Cmat.get tm k j) y.(j))
    done;
    let d = csub (Cmat.get tm k k) lambda in
    let d =
      if cabs d < 1e-13 *. (1.0 +. cabs lambda) then
        cadd d (cx (1e-13 *. (1.0 +. cabs lambda)) 0.0)
      else d
    in
    y.(k) <- cdiv (Complex.neg !rhs) d
  done;
  let v = Cmat.mv q y in
  let nrm = Cvec.norm2 v in
  if nrm > 0.0 then Cvec.scale (cx (1.0 /. nrm) 0.0) v else v

(* Decompose a real matrix, complexifying first. *)
let of_real (a : Mat.t) = decompose (Cmat.of_mat a)
