(* Incremental cache of sample columns — the shared pipeline layer under
   every PMTBR variant.

   The paper presents Algorithms 2-3, the cross-Gramian scheme and the
   multipoint baseline as re-parameterisations of one sample→SVD→project
   pipeline; the only thing that changes between them is the *source* of
   the sample columns:

   - [Controllability]: (s_k E - A)^{-1} B          (Algorithms 1-2)
   - [Observability]:   (s_k E - A)^{-H} C^T        (cross-Gramian left side)
   - [Fixed_rhs r]:     (s_k E - A)^{-1} r          (deterministic Algorithm 3)
   - [Per_point]:       (s_k E - A)^{-1} r_k        (random-draw Algorithm 3)

   The cache makes extension the primitive for all of them:

   - Each point's *raw, unweighted* realified columns are solved for and
     stored exactly once ([extend] / [extend_rhs]); the quadrature weight
     and the adaptive prefix rescaling are applied later as a per-column
     diagonal at assembly time, so rescaling a prefix costs no solves at
     all.  Storing the columns unweighted is what makes this exact: the
     realified block of a point with weight [w] is [sqrt w] times its
     weight-1 block, bit for bit.

   - One [Dss.multi_shift] handle (symbolic sparse-LU analysis, template
     shift = the first point ever consumed) and one engine worker pool
     configuration are shared across every batch of the run.  A handle can
     also be passed in at [create], so the two sides of a cross-Gramian
     run (controllability and observability caches) share one symbolic
     analysis — the adjoint solve reuses the same elimination structure.

   - A thin QR factorisation of the raw columns (Gram-Schmidt with one
     re-orthogonalisation pass, column by column) is grown on first use:
     with [ZW = Q R D] for the diagonal weight matrix [D], the singular
     values of the small [R D] are those of [ZW], and [Q] times the left
     singular vectors of [R D] is the left singular basis of [ZW].  That
     pays off while the cache holds at most as many columns as states;
     past that [ZW] itself is the smaller SVD operand, and [svd_operand]
     hands it over instead — so a wide cache never pays the O(n c^2) QR
     or the c^2 factor nobody reads.  For two caches, [cross_q] gives the
     small Gram matrix [Q_a^T Q_b] that compresses cross products such as
     the sampled cross-Gramian pencil to the column dimension.

   Every operation is a pure function of the points consumed so far —
   batch boundaries, worker counts and rescaling leave no trace in the
   stored columns — which is what makes the incremental adaptive loops
   bitwise-identical to their from-scratch references. *)

open Pmtbr_la
open Pmtbr_lti

type source =
  | Controllability
  | Observability
  | Fixed_rhs of Mat.t
  | Per_point

type t = {
  sys : Dss.t;
  source : source;
  rhs : Mat.t option; (* the fixed right-hand side; [None] for [Per_point] *)
  hermitian : bool; (* adjoint solves (observability side) *)
  n : int; (* state dimension *)
  workers : int option;
  oversubscribe : bool;
  mutable ms : Dss.multi_shift option; (* created at the first extend *)
  mutable entries : (float * int) array; (* per point: weight, column count *)
  mutable raw : float array array; (* raw unweighted columns, each length n *)
  mutable q_cols : float array array; (* thin-QR orthonormal columns, a prefix of [raw]'s *)
  mutable r_cols : float array array; (* column j of R, length j + 1 *)
  qr_lock : Mutex.t; (* the lazy QR build: caches are shared across store jobs *)
  mutable solves : int;
  mutable batches : int;
  mutable factor_s : float;
  mutable solve_s : float;
  mutable batch_wall : float list; (* reversed *)
}

type stats = {
  solves : int;
  points : int;
  columns : int;
  batches : int;
  factor_s : float;
  solve_s : float;
  batch_wall_s : float array;
}

let create ?workers ?(oversubscribe = false) ?ms ?(source = Controllability) sys =
  let n = Dss.order sys in
  let rhs, hermitian =
    match source with
    | Controllability -> (Some (Dss.b_matrix sys), false)
    | Observability -> (Some (Mat.transpose (Dss.c_matrix sys)), true)
    | Fixed_rhs r ->
        if r.Mat.rows <> n then
          invalid_arg
            (Printf.sprintf "Sample_cache.create: Fixed_rhs has %d rows for a %d-state system"
               r.Mat.rows n);
        (Some r, false)
    | Per_point -> (None, false)
  in
  {
    sys;
    source;
    rhs;
    hermitian;
    n;
    workers;
    oversubscribe;
    ms;
    entries = [||];
    raw = [||];
    q_cols = [||];
    r_cols = [||];
    qr_lock = Mutex.create ();
    solves = 0;
    batches = 0;
    factor_s = 0.0;
    solve_s = 0.0;
    batch_wall = [];
  }

let points t = Array.length t.entries
let columns t = Array.length t.raw

let stats (t : t) : stats =
  {
    solves = t.solves;
    points = points t;
    columns = columns t;
    batches = t.batches;
    factor_s = t.factor_s;
    solve_s = t.solve_s;
    batch_wall_s = Array.of_list (List.rev t.batch_wall);
  }

let merge_stats (a : stats) (b : stats) : stats =
  {
    solves = a.solves + b.solves;
    points = a.points + b.points;
    columns = a.columns + b.columns;
    batches = a.batches + b.batches;
    factor_s = a.factor_s +. b.factor_s;
    solve_s = a.solve_s +. b.solve_s;
    batch_wall_s = Array.append a.batch_wall_s b.batch_wall_s;
  }

(* ------------------------------------------------------------------ *)
(* Incremental thin QR                                                 *)
(* ------------------------------------------------------------------ *)

(* Orthogonalise raw column [j] against the Q columns [q.(0 .. j-1)]
   (Gram-Schmidt, two passes — "twice is enough" keeps Q orthonormal to
   roundoff), yielding its Q column and R column.  Strictly sequential in
   column order, so replaying the same columns in the same order — in one
   build or many — produces bitwise-identical factors.  The level-1 work
   inside each column step runs on the [Par_kernel] blocked kernels: the
   projections use the fixed-blocking dot, and the subtraction — a
   single independent operation per row — is sliced over row ranges.
   Neither depends on the worker count, so the per-column (and hence
   per-batch) determinism contract is untouched. *)
let orthogonalise t (q : float array array) j =
  let n = t.n in
  let v = Array.copy t.raw.(j) in
  let rj = Array.make (j + 1) 0.0 in
  for _pass = 1 to 2 do
    for i = 0 to j - 1 do
      let qi = q.(i) in
      let h = Par_kernel.dot qi v in
      rj.(i) <- rj.(i) +. h;
      Par_kernel.parallel_ranges ?workers:t.workers ~work:(2 * n) n (fun lo hi ->
          for k = lo to hi - 1 do
            v.(k) <- v.(k) -. (h *. qi.(k))
          done)
    done
  done;
  let rho = sqrt (Par_kernel.dot v v) in
  rj.(j) <- rho;
  let qj = if rho > 0.0 then Array.map (fun x -> x /. rho) v else Array.make n 0.0 in
  (qj, rj)

(* Extend the thin QR over every raw column it does not cover yet.  The
   store shares sample caches across jobs (and subdomain caches across
   networks), so two domains can ask at once: the build runs under the
   cache's own lock. *)
let ensure_qr t =
  Mutex.protect t.qr_lock (fun () ->
      let built = Array.length t.q_cols and c = columns t in
      if built < c then begin
        let q = Array.append t.q_cols (Array.make (c - built) [||]) in
        let r = Array.append t.r_cols (Array.make (c - built) [||]) in
        for j = built to c - 1 do
          let qj, rj = orthogonalise t q j in
          q.(j) <- qj;
          r.(j) <- rj
        done;
        t.q_cols <- q;
        t.r_cols <- r
      end)

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)
(* ------------------------------------------------------------------ *)

(* Shared extension core: solve every task through the one multi-shift
   handle and store the raw columns (the thin QR follows on first use).  Each task's
   weight has already been forced to 1.0 (raw columns); the original
   weights arrive through [new_entries]. *)
let extend_tasks t (tasks : Shift_engine.task array) (new_entries : (float * int) array) =
  if Array.length tasks > 0 then begin
    let t0 = Unix.gettimeofday () in
    let ms =
      match t.ms with
      | Some ms -> ms
      | None ->
          let ms = Dss.multi_shift ~template:tasks.(0).Shift_engine.point.Sampling.s t.sys in
          t.ms <- Some ms;
          ms
    in
    let block, st =
      Shift_engine.run ?workers:t.workers ~oversubscribe:t.oversubscribe ~ms t.sys tasks
    in
    let new_cols = Array.fold_left (fun acc (_, c) -> acc + c) 0 new_entries in
    assert (block.Mat.cols = new_cols);
    t.entries <- Array.append t.entries new_entries;
    t.raw <- Array.append t.raw (Array.init new_cols (Mat.col block));
    t.solves <- t.solves + st.Shift_engine.solves;
    t.factor_s <- t.factor_s +. st.Shift_engine.factor_s;
    t.solve_s <- t.solve_s +. st.Shift_engine.solve_s;
    t.batches <- t.batches + 1;
    t.batch_wall <- (Unix.gettimeofday () -. t0) :: t.batch_wall
  end

let cols_of_point rhs_cols (p : Sampling.point) =
  (if Shift_engine.is_effectively_real p.Sampling.s then 1 else 2) * rhs_cols

let extend t (pts : Sampling.point array) =
  let rhs =
    match t.rhs with
    | Some rhs -> rhs
    | None -> invalid_arg "Sample_cache.extend: Per_point cache needs extend_rhs"
  in
  (* weight 1.0 realifies to the raw columns: sqrt 1.0 *. x = x, bitwise *)
  let tasks =
    Array.map
      (fun p ->
        {
          Shift_engine.point = { p with Sampling.weight = 1.0 };
          rhs;
          hermitian = t.hermitian;
        })
      pts
  in
  let new_entries =
    Array.map (fun p -> (p.Sampling.weight, cols_of_point rhs.Mat.cols p)) pts
  in
  extend_tasks t tasks new_entries

let extend_rhs t (pts_rhs : (Sampling.point * Mat.t) array) =
  (match t.source with
  | Per_point -> ()
  | Controllability | Observability | Fixed_rhs _ ->
      invalid_arg "Sample_cache.extend_rhs: cache source carries a fixed right-hand side");
  Array.iter
    (fun (_, (r : Mat.t)) ->
      if r.Mat.rows <> t.n then
        invalid_arg
          (Printf.sprintf "Sample_cache.extend_rhs: rhs has %d rows for a %d-state system"
             r.Mat.rows t.n))
    pts_rhs;
  let tasks =
    Array.map
      (fun (p, rhs) ->
        { Shift_engine.point = { p with Sampling.weight = 1.0 }; rhs; hermitian = false })
      pts_rhs
  in
  let new_entries =
    Array.map (fun (p, (r : Mat.t)) -> (p.Sampling.weight, cols_of_point r.Mat.cols p)) pts_rhs
  in
  extend_tasks t tasks new_entries

(* ------------------------------------------------------------------ *)
(* Weighted assembly                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-column weights sqrt(weight * scale): exactly the factor
   [Shift_engine.realify_block] would have applied had the point been
   solved with its rescaled weight — same expression, same bits. *)
let col_weights t ~scale =
  let cw = Array.make (columns t) 0.0 in
  let j = ref 0 in
  Array.iter
    (fun (weight, cols) ->
      let w = sqrt (Float.max 0.0 (weight *. scale)) in
      for _ = 1 to cols do
        cw.(!j) <- w;
        incr j
      done)
    t.entries;
  cw

let assemble t ~scale =
  let c = columns t in
  if c = 0 then invalid_arg "Sample_cache.assemble: empty cache";
  let cw = col_weights t ~scale in
  let out = Mat.create t.n c in
  (* each element is written exactly once: row slices are worker-invariant *)
  Par_kernel.parallel_ranges ?workers:t.workers ~work:(t.n * c) t.n (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * c in
        for j = 0 to c - 1 do
          out.Mat.data.(base + j) <- cw.(j) *. t.raw.(j).(i)
        done
      done);
  out

let small_factor t ~scale =
  let c = columns t in
  if c = 0 then invalid_arg "Sample_cache.small_factor: empty cache";
  ensure_qr t;
  let cw = col_weights t ~scale in
  Mat.init c c (fun i j -> if i <= j then t.r_cols.(j).(i) *. cw.(j) else 0.0)

let apply_q t (coeff : Mat.t) =
  let c = columns t in
  if coeff.Mat.rows <> c then invalid_arg "Sample_cache.apply_q: row count mismatch";
  ensure_qr t;
  let p = coeff.Mat.cols in
  let out = Mat.create t.n p in
  (* sliced over output rows; every out(i, k) still accumulates over the
     cache columns j in ascending order, so the result is bitwise the
     same for any worker count *)
  Par_kernel.parallel_ranges ?workers:t.workers ~work:(2 * t.n * c * p) t.n (fun lo hi ->
      for j = 0 to c - 1 do
        let qj = t.q_cols.(j) in
        for k = 0 to p - 1 do
          let w = Mat.get coeff j k in
          if w <> 0.0 then
            for i = lo to hi - 1 do
              out.Mat.data.((i * p) + k) <- out.Mat.data.((i * p) + k) +. (w *. qj.(i))
            done
        done
      done);
  out

let cross_q a b =
  if a.n <> b.n then invalid_arg "Sample_cache.cross_q: state dimensions differ";
  ensure_qr a;
  ensure_qr b;
  let ca = columns a and cb = columns b in
  let out = Mat.create ca cb in
  Par_kernel.parallel_ranges ?workers:a.workers ~work:(2 * ca * cb * a.n) ca (fun lo hi ->
      for i = lo to hi - 1 do
        for j = 0 to cb - 1 do
          Mat.set out i j (Par_kernel.dot a.q_cols.(i) b.q_cols.(j))
        done
      done);
  out

(* The one SVD-operand rule every finish and monitor goes through.  Both
   operands share their singular values with the assembled ZW; the
   smaller one wins.  A wide cache (more columns than states) hands over
   ZW itself, whose left singular vectors are already state-space
   columns; a tall one hands over the c x c factor R D, whose left
   singular vectors [lift] carries back through Q. *)
let wide t = columns t > t.n

let svd_operand t ~scale = if wide t then assemble t ~scale else small_factor t ~scale

let lift t u = if wide t then u else apply_q t u
