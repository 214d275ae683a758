(* Domain-parallel, cache-blocked dense kernels for the reduction stage.
   See the interface for the determinism contract; the short version is
   that every kernel here decomposes its iteration space into tiles that
   depend only on the operand shapes, each output slot is owned by exactly
   one task, and per-slot accumulation replays the serial order — so the
   results are bitwise-identical for any worker count; [mul]/[gram]/[mv]
   are [Mat]'s own kernels run over row panels. *)

let installed_workers : int option ref = ref None

let default_workers () =
  match !installed_workers with
  | Some w when w >= 1 -> w
  | Some _ | None -> Domain.recommended_domain_count ()

let set_default_workers w = installed_workers := w

let cap_to_host w = max 1 (min w (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* The fan                                                             *)
(* ------------------------------------------------------------------ *)

type pool = { workers : int; wall_s : float; busy_s : float array }

(* The one worker rule: an explicit count is honoured, anything else is
   the default; a pool never holds more workers than jobs. *)
let pool_size ~workers n = min (if workers >= 1 then workers else default_workers ()) n

(* Degenerate pools (no jobs, or a wall clock too fast to resolve) have
   no meaningful busy fraction; report 0 rather than dividing by zero. *)
let utilisation p =
  if p.wall_s <= 0.0 || Array.length p.busy_s = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 p.busy_s /. (p.wall_s *. float_of_int (Array.length p.busy_s))

(* More domains than cores is never a speedup in OCaml 5: every minor
   collection synchronises all domains, and a descheduled domain turns
   each sync into a scheduler round-trip.  The library honours the count
   it is given (the CLI caps a user's count at the host's), so say so
   once when a pool oversubscribes; results are unaffected. *)
let oversubscribed_warned = Atomic.make false

let warn_if_oversubscribed nw =
  let hw = Domain.recommended_domain_count () in
  if nw > hw && not (Atomic.exchange oversubscribed_warned true) then
    Printf.eprintf
      "pmtbr: warning: a pool of %d workers exceeds the %d domain(s) this host recommends; \
       timings are oversubscribed (results are unchanged)\n%!"
      nw hw

let now () = Unix.gettimeofday ()

let fan ~workers n job =
  let nw = pool_size ~workers n in
  let t0 = now () in
  if nw <= 1 then begin
    (* inline, in index order: the first failure is the lowest index *)
    let out = Array.init n job in
    let wall = now () -. t0 in
    (out, { workers = nw; wall_s = wall; busy_s = Array.make nw wall })
  end
  else begin
    warn_if_oversubscribed nw;
    let results = Array.make n None in
    let busy = Array.make nw 0.0 in
    let next = Atomic.make 0 and failed = Atomic.make false in
    (* Workers claim indices in increasing order, so once a job has
       failed every lower index is already claimed and will finish:
       claiming no more cannot change which failure is the lowest. *)
    let work w =
      let t_in = now () in
      let rec loop () =
        if not (Atomic.get failed) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match job i with
            | v -> results.(i) <- Some (Ok v)
            | exception e ->
                results.(i) <- Some (Error (e, Printexc.get_raw_backtrace ()));
                Atomic.set failed true);
            loop ()
          end
        end
      in
      loop ();
      busy.(w) <- now () -. t_in
    in
    let domains = Array.init (nw - 1) (fun w -> Domain.spawn (fun () -> work (w + 1))) in
    work 0;
    Array.iter Domain.join domains;
    let wall = now () -. t0 in
    (* scanned in index order: the first error met is the lowest failing
       index, and every slot before it holds a result *)
    let out =
      Array.map
        (function
          | Some (Ok v) -> v
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | None -> assert false)
        results
    in
    (out, { workers = nw; wall_s = wall; busy_s = busy })
  end

(* Minimum scalar-op count before a kernel spawns domains at all: below
   this the spawn/join overhead dwarfs the loop.  A shape-only cutover —
   never a measurement — so it cannot break worker-invariance. *)
let grain = 1 lsl 16

let parallel_ranges ?(workers = 0) ~work n f =
  if n > 0 then begin
    let nw = pool_size ~workers n in
    if nw <= 1 || work < grain then f 0 n
    else begin
      (* contiguous chunks: the first [n mod nw] get one extra element *)
      let base = n / nw and rem = n mod nw in
      let bound t = (t * base) + min t rem in
      ignore (fan ~workers:nw nw (fun t -> f (bound t) (bound (t + 1))))
    end
  end

(* ------------------------------------------------------------------ *)
(* Level-1/2/3 kernels                                                 *)
(* ------------------------------------------------------------------ *)

let dot_block = 4096

let dot (x : float array) (y : float array) =
  assert (Array.length x = Array.length y);
  let n = Array.length x in
  if n <= dot_block then begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
    done;
    !acc
  end
  else begin
    let total = ref 0.0 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + dot_block) in
      let acc = ref 0.0 in
      for i = !lo to hi - 1 do
        acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
      done;
      total := !total +. !acc;
      lo := hi
    done;
    !total
  end

(* [Mat]'s own loops, run over row panels: each output row is owned by
   one panel and accumulates in the serial order. *)
let mul ?workers a b = Mat.mul_over (parallel_ranges ?workers) a b
let gram ?workers m = Mat.gram_over (parallel_ranges ?workers) m
let mv ?workers m x = Mat.mv_over (parallel_ranges ?workers) m x

(* ------------------------------------------------------------------ *)
(* Blocked Householder QR                                              *)
(* ------------------------------------------------------------------ *)

type qr = { wf : Mat.t; betas : float array }

let panel_width = 32

(* The QR kernels work on column-major scratch (one contiguous float
   array per column) rather than on the row-major [Mat] directly: every
   reflector dot/axpy then streams sequential memory with direct
   (monomorphic, allocation-free) array access, instead of strided
   bounds-checked reads down a column of [data], one cache line per
   element.  The arithmetic sequence per element is unchanged, so
   results stay bitwise-identical to the row-major code
   ([Pmtbr_oracle.Unblocked_qr]). *)
let cols_of_mat (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  let data = a.Mat.data in
  Array.init n (fun j ->
      let c = Array.make m 0.0 in
      for i = 0 to m - 1 do
        Array.unsafe_set c i (Array.unsafe_get data ((i * n) + j))
      done;
      c)

let mat_of_cols m n (cols : float array array) =
  let out = Mat.create m n in
  let data = out.Mat.data in
  for j = 0 to n - 1 do
    let c = cols.(j) in
    for i = 0 to m - 1 do
      Array.unsafe_set data ((i * n) + j) (Array.unsafe_get c i)
    done
  done;
  out

(* Apply the *raw* (unnormalised) reflector of column [k] — v = [v0;
   colk(k+1..)] with scaling [beta] = 2/(v^T v) — to column [colj].
   This is verbatim the trailing-update arithmetic of the unblocked
   sweep, so a column that receives its reflectors one by one through
   this function ends up bitwise-identical to the unblocked
   factorisation. *)
let apply_raw ~m ~k ~v0 ~beta (colk : float array) (colj : float array) =
  let dot = ref (v0 *. Array.unsafe_get colj k) in
  for i = k + 1 to m - 1 do
    dot := !dot +. (Array.unsafe_get colk i *. Array.unsafe_get colj i)
  done;
  let s = beta *. !dot in
  Array.unsafe_set colj k (Array.unsafe_get colj k -. (s *. v0));
  for i = k + 1 to m - 1 do
    Array.unsafe_set colj i (Array.unsafe_get colj i -. (s *. Array.unsafe_get colk i))
  done

let qr_factor ?workers (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  let w = cols_of_mat a in
  let kmax = min m n in
  let betas = Array.make kmax 0.0 in
  let k0 = ref 0 in
  while !k0 < kmax do
    let k1 = min kmax (!k0 + panel_width) in
    let width = k1 - !k0 in
    (* per panel column: raw v0, raw beta, and whether a reflector exists *)
    let v0s = Array.make width 0.0 in
    let raw_betas = Array.make width 0.0 in
    let active = Array.make width false in
    for k = !k0 to k1 - 1 do
      let kk = k - !k0 in
      let colk = w.(k) in
      let normx = ref 0.0 in
      for i = k to m - 1 do
        let v = Array.unsafe_get colk i in
        normx := !normx +. (v *. v)
      done;
      let normx = sqrt !normx in
      if normx > 0.0 then begin
        let alpha = if colk.(k) >= 0.0 then -.normx else normx in
        let v0 = colk.(k) -. alpha in
        let vtv = ref (v0 *. v0) in
        for i = k + 1 to m - 1 do
          let v = Array.unsafe_get colk i in
          vtv := !vtv +. (v *. v)
        done;
        let beta = if !vtv = 0.0 then 0.0 else 2.0 /. !vtv in
        v0s.(kk) <- v0;
        raw_betas.(kk) <- beta;
        active.(kk) <- true;
        (* immediate update of the rest of the panel, so the next panel
           column is current when its reflector is built *)
        for j = k + 1 to k1 - 1 do
          apply_raw ~m ~k ~v0 ~beta colk w.(j)
        done;
        colk.(k) <- alpha
      end
    done;
    (* deferred update of the trailing columns: each column receives the
       panel's reflectors in ascending k — the same per-column operation
       sequence as the unblocked sweep — and columns are independent, so
       the panels parallelise with bitwise invariance *)
    if k1 < n then begin
      let ntrail = n - k1 in
      parallel_ranges ?workers
        ~work:(4 * width * (m - !k0) * ntrail)
        ntrail
        (fun lo hi ->
          for jj = lo to hi - 1 do
            let colj = w.(k1 + jj) in
            for k = !k0 to k1 - 1 do
              let kk = k - !k0 in
              if active.(kk) then
                apply_raw ~m ~k ~v0:(v0s.(kk)) ~beta:(raw_betas.(kk)) w.(k) colj
            done
          done)
    end;
    (* normalise the panel reflectors (v' = v / v0) and rescale betas,
       exactly as the unblocked sweep does after its trailing update *)
    for k = !k0 to k1 - 1 do
      let kk = k - !k0 in
      if active.(kk) then begin
        let v0 = v0s.(kk) in
        let colk = w.(k) in
        if v0 <> 0.0 then
          for i = k + 1 to m - 1 do
            Array.unsafe_set colk i (Array.unsafe_get colk i /. v0)
          done;
        betas.(k) <- raw_betas.(kk) *. v0 *. v0
      end
    done;
    k0 := k1
  done;
  { wf = mat_of_cols m n w; betas }

let qr_r { wf; _ } =
  let kmax = min wf.Mat.rows wf.Mat.cols in
  Mat.init kmax wf.Mat.cols (fun i j -> if i <= j then Mat.get wf i j else 0.0)

(* Apply the *normalised* packed reflector [k] — v = [1; wcol(k+1..)] —
   to the contiguous column [y]; verbatim the arithmetic of the classic
   [form_thin_q] body. *)
let apply_packed ~m ~k ~beta (wcol : float array) (y : float array) =
  if beta <> 0.0 then begin
    let dot = ref (Array.unsafe_get y k) in
    for i = k + 1 to m - 1 do
      dot := !dot +. (Array.unsafe_get wcol i *. Array.unsafe_get y i)
    done;
    let s = beta *. !dot in
    Array.unsafe_set y k (Array.unsafe_get y k -. s);
    for i = k + 1 to m - 1 do
      Array.unsafe_set y i (Array.unsafe_get y i -. (s *. Array.unsafe_get wcol i))
    done
  end

let qr_thin_q ?workers ?cols { wf; betas } =
  let m = wf.Mat.rows in
  let kmax = min m wf.Mat.cols in
  let n = match cols with Some c -> c | None -> kmax in
  assert (n >= 0 && n <= m);
  let wcols = cols_of_mat wf in
  let q =
    Array.init n (fun j ->
        let c = Array.make m 0.0 in
        c.(j) <- 1.0;
        c)
  in
  parallel_ranges ?workers ~work:(2 * n * kmax * m) n (fun lo hi ->
      for j = lo to hi - 1 do
        let y = q.(j) in
        for k = kmax - 1 downto 0 do
          apply_packed ~m ~k ~beta:(betas.(k)) wcols.(k) y
        done
      done);
  mat_of_cols m n q

let qr_apply_q ?workers { wf; betas } (x : Mat.t) =
  let m = wf.Mat.rows in
  let kmax = min m wf.Mat.cols in
  assert (x.Mat.rows = m || x.Mat.rows = kmax);
  let p = x.Mat.cols in
  let wcols = cols_of_mat wf in
  let xd = x.Mat.data in
  let y =
    Array.init p (fun j ->
        let c = Array.make m 0.0 in
        for i = 0 to x.Mat.rows - 1 do
          Array.unsafe_set c i (Array.unsafe_get xd ((i * p) + j))
        done;
        c)
  in
  parallel_ranges ?workers ~work:(2 * p * kmax * m) p (fun lo hi ->
      for j = lo to hi - 1 do
        let c = y.(j) in
        for k = kmax - 1 downto 0 do
          apply_packed ~m ~k ~beta:(betas.(k)) wcols.(k) c
        done
      done);
  mat_of_cols m p y

let qr_apply_qt ?workers { wf; betas } (x : Mat.t) =
  let m = wf.Mat.rows in
  let kmax = min m wf.Mat.cols in
  assert (x.Mat.rows = m);
  let p = x.Mat.cols in
  let wcols = cols_of_mat wf in
  let y = cols_of_mat x in
  parallel_ranges ?workers ~work:(2 * p * kmax * m) p (fun lo hi ->
      for j = lo to hi - 1 do
        let c = y.(j) in
        for k = 0 to kmax - 1 do
          apply_packed ~m ~k ~beta:(betas.(k)) wcols.(k) c
        done
      done);
  mat_of_cols m p y

let qr_apply_qt_vec { wf; betas } (x : float array) =
  let m = wf.Mat.rows in
  let kmax = min m wf.Mat.cols in
  assert (Array.length x = m);
  let wcols = cols_of_mat wf in
  let y = Array.copy x in
  for k = 0 to kmax - 1 do
    apply_packed ~m ~k ~beta:(betas.(k)) wcols.(k) y
  done;
  y

(* ------------------------------------------------------------------ *)
(* Round-robin one-sided Jacobi                                        *)
(* ------------------------------------------------------------------ *)

let jacobi_rounds ?workers ?(v : float array array option) ~threshold ~max_sweeps ~rows
    (w : float array array) =
  let n = Array.length w in
  if n >= 2 then begin
    let m = rows in
    let vlen = match v with Some v -> Array.length v.(0) | None -> 0 in
    (* verbatim rotation arithmetic of the serial cyclic sweep; returns
       whether a rotation was applied *)
    let rotate_pair p q =
      let wp = w.(p) and wq = w.(q) in
      let alpha = ref 0.0 and beta = ref 0.0 and gamma = ref 0.0 in
      for i = 0 to m - 1 do
        let a = Array.unsafe_get wp i and b = Array.unsafe_get wq i in
        alpha := !alpha +. (a *. a);
        beta := !beta +. (b *. b);
        gamma := !gamma +. (a *. b)
      done;
      let alpha = !alpha and beta = !beta and gamma = !gamma in
      if Float.abs gamma > threshold *. sqrt (alpha *. beta) && gamma <> 0.0 then begin
        let zeta = (beta -. alpha) /. (2.0 *. gamma) in
        let t =
          let s = if zeta >= 0.0 then 1.0 else -1.0 in
          s /. (Float.abs zeta +. sqrt (1.0 +. (zeta *. zeta)))
        in
        let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
        let s = c *. t in
        for i = 0 to m - 1 do
          let a = Array.unsafe_get wp i and b = Array.unsafe_get wq i in
          Array.unsafe_set wp i ((c *. a) -. (s *. b));
          Array.unsafe_set wq i ((s *. a) +. (c *. b))
        done;
        (match v with
        | None -> ()
        | Some v ->
            let vp = v.(p) and vq = v.(q) in
            for i = 0 to vlen - 1 do
              let a = Array.unsafe_get vp i and b = Array.unsafe_get vq i in
              Array.unsafe_set vp i ((c *. a) -. (s *. b));
              Array.unsafe_set vq i ((s *. a) +. (c *. b))
            done);
        true
      end
      else false
    in
    (* Tournament (circle-method) schedule on [padded] players: player
       [padded - 1] is fixed, the rest rotate; round [r] pairs it with
       [r], and pairs ((r + i) mod (padded - 1), (r - i) mod (padded - 1))
       for i = 1 .. padded/2 - 1.  Every column pair meets exactly once
       per sweep, and the pairs of one round are disjoint — so one round
       is a parallel map over column pairs, each owned by one task. *)
    let padded = if n land 1 = 1 then n + 1 else n in
    let nrounds = padded - 1 in
    let npairs = padded / 2 in
    let rotated = Array.make npairs false in
    let converged = ref false in
    let sweeps = ref 0 in
    while (not !converged) && !sweeps < max_sweeps do
      incr sweeps;
      converged := true;
      for r = 0 to nrounds - 1 do
        parallel_ranges ?workers ~work:(6 * npairs * m) npairs (fun lo hi ->
            for idx = lo to hi - 1 do
              let a, b =
                if idx = 0 then (padded - 1, r)
                else ((r + idx) mod nrounds, (r - idx + nrounds) mod nrounds)
              in
              if a < n && b < n then rotated.(idx) <- rotate_pair (min a b) (max a b)
              else rotated.(idx) <- false
            done);
        for idx = 0 to npairs - 1 do
          if rotated.(idx) then converged := false
        done
      done
    done
  end
