(* Parallel multi-shift sampling engine.

   PMTBR's cost is the embarrassingly-parallel loop of shifted solves
   z_k = (s_k E - A)^{-1} B (paper eq. 8-11).  This module runs that loop
   over an OCaml 5 domain pool with two properties the algorithms above
   rely on:

   - Factorisation reuse: the symbolic analysis of the sparse LU (pattern
     assembly, fill-reducing ordering, elimination structure) is done once
     per run through [Dss.multi_shift]; each worker pays only a numeric
     refactorisation per shift.

   - Determinism: the sample matrix is assembled in task order from
     per-task blocks, and each block is a pure function of (system, task) —
     never of which worker computed it or when.  Parallel and serial runs
     therefore produce bitwise-identical matrices, which CI enforces.

   Work distribution is a chunked queue on an atomic counter: workers grab
   the next [chunk] task indices until the queue drains, so slow shifts
   (fallback refactorisations, fill-heavy corners) do not stall a static
   partition. *)

open Pmtbr_la
open Pmtbr_lti

type task = { point : Sampling.point; rhs : Mat.t; hermitian : bool }

type stats = {
  solves : int;
  workers : int;
  factor_s : float;
  solve_s : float;
  wall_s : float;
  busy_s : float array;
}

let default_workers () = Domain.recommended_domain_count ()

(* Degenerate runs (no tasks, or a wall clock too fast to resolve) have
   no meaningful busy fraction; report 0 rather than dividing by zero. *)
let utilisation st =
  if st.wall_s <= 0.0 || Array.length st.busy_s = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 st.busy_s /. (st.wall_s *. float_of_int (Array.length st.busy_s))

(* ------------------------------------------------------------------ *)
(* Realification (step 5 of Algorithm 1)                               *)
(* ------------------------------------------------------------------ *)

(* Real column block for one sample point: a complex sample at +j w also
   stands for its conjugate at -j w, and span{z, z*} = span{Re z, Im z}
   over the reals, so the real and imaginary parts become two real
   columns.  Points with numerically zero imaginary part contribute only
   their real columns. *)
let realify_block ~(weight : float) (cols : Complex.t array array) ~(is_real : bool) =
  let p = Array.length cols in
  assert (p > 0);
  let n = Array.length cols.(0) in
  let w = sqrt (Float.max 0.0 weight) in
  if is_real then Mat.init n p (fun i j -> w *. cols.(j).(i).Complex.re)
  else
    (* conjugate pair weight: both half-axes contribute; the constant
       factor 2 folds into the weight and is irrelevant to the subspace *)
    Mat.init n (2 * p) (fun i j ->
        let z = cols.(j / 2).(i) in
        w *. (if j mod 2 = 0 then z.Complex.re else z.Complex.im))

let is_effectively_real (s : Complex.t) =
  Float.abs s.Complex.im <= 1e-300 +. (1e-12 *. Float.abs s.Complex.re)

(* ------------------------------------------------------------------ *)
(* The worker pool                                                     *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

(* One task: factor (numeric refactorisation through the shared handle),
   solve, realify.  Pure in (ms, t); timings are observational only. *)
let run_task ms (t : task) ~factor_acc ~solve_acc =
  let t0 = now () in
  let f = Dss.multi_factor ms ~hermitian:t.hermitian t.point.Sampling.s in
  let t1 = now () in
  let cols = Dss.multi_solve_factored f ~hermitian:t.hermitian t.rhs in
  let block =
    realify_block ~weight:t.point.Sampling.weight cols
      ~is_real:(is_effectively_real t.point.Sampling.s)
  in
  let t2 = now () in
  factor_acc := !factor_acc +. (t1 -. t0);
  solve_acc := !solve_acc +. (t2 -. t1);
  block

let run ?workers ?(oversubscribe = false) ?(chunk = 1) ?ms sys (tasks : task array) =
  let nt = Array.length tasks in
  if nt = 0 then invalid_arg "Shift_engine.run: no tasks";
  if chunk < 1 then invalid_arg "Shift_engine.run: chunk must be >= 1";
  let requested =
    match workers with Some w when w >= 1 -> w | Some _ | None -> default_workers ()
  in
  (* Running more domains than cores is never a speedup in OCaml 5: every
     minor collection synchronises all domains, and a descheduled domain
     turns each sync into a scheduler round-trip.  So the pool is capped
     at the hardware unless the caller explicitly opts out (tests do, to
     exercise real multi-domain runs on any machine). *)
  let cap = if oversubscribe then requested else min requested (default_workers ()) in
  let nw = max 1 (min cap nt) in
  (* an explicitly requested multi-worker pool that the hardware cap
     squeezed down to one domain deserves a (once-per-process) warning:
     the run is correct but effectively serial *)
  if requested > 1 && nw = 1 && nt > 1 then
    Par_kernel.warn_worker_collapse ~context:"the multi-shift solve pool" ~requested ();
  (* the template shift is the first task's point — independent of the
     worker count, so serial and parallel runs share it.  A caller that
     extends a sample set incrementally ([Sample_cache]) passes its own
     handle so the symbolic analysis is shared across batches too. *)
  let ms =
    match ms with
    | Some ms -> ms
    | None -> Dss.multi_shift ~template:tasks.(0).point.Sampling.s sys
  in
  let blocks : Mat.t option array = Array.make nt None in
  let failures : (int * exn) option array = Array.make nw None in
  let factor_t = Array.make nw 0.0
  and solve_t = Array.make nw 0.0
  and busy_t = Array.make nw 0.0
  and n_solved = Array.make nw 0 in
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
        for i = start to min nt (start + chunk) - 1 do
          if failures.(wid) = None then
            match run_task ms tasks.(i) ~factor_acc ~solve_acc with
            | block ->
                blocks.(i) <- Some block;
                incr solved
            | exception e -> failures.(wid) <- Some (i, e)
        done
    done;
    factor_t.(wid) <- !factor_acc;
    solve_t.(wid) <- !solve_acc;
    n_solved.(wid) <- !solved;
    busy_t.(wid) <- now () -. t_in
  in
  let t_start = now () in
  if nw = 1 then work 0
  else begin
    let domains = Array.init nw (fun wid -> Domain.spawn (fun () -> work wid)) in
    Array.iter Domain.join domains
  end;
  let wall = now () -. t_start in
  (* propagate a worker failure deterministically: the one at the lowest
     task index wins, whatever the scheduling was *)
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
  (* Single-pass assembly in task order: one allocation, one copy of each
     block, instead of the O(total^2) repeated copying of an hcat fold. *)
  let zw =
    let n = (Option.get blocks.(0)).Mat.rows in
    let total_cols = Array.fold_left (fun acc b -> acc + (Option.get b).Mat.cols) 0 blocks in
    let out = Mat.create n total_cols in
    let off = ref 0 in
    Array.iter
      (fun b ->
        let b = Option.get b in
        assert (b.Mat.rows = n);
        for i = 0 to n - 1 do
          Array.blit b.Mat.data (i * b.Mat.cols) out.Mat.data ((i * total_cols) + !off)
            b.Mat.cols
        done;
        off := !off + b.Mat.cols)
      blocks;
    out
  in
  let stats =
    {
      solves = Array.fold_left ( + ) 0 n_solved;
      workers = nw;
      factor_s = Array.fold_left ( +. ) 0.0 factor_t;
      solve_s = Array.fold_left ( +. ) 0.0 solve_t;
      wall_s = wall;
      busy_s = busy_t;
    }
  in
  (zw, stats)
