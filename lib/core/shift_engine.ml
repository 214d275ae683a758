(* Parallel multi-shift sampling engine.

   PMTBR's cost is the embarrassingly-parallel loop of shifted solves
   z_k = (s_k E - A)^{-1} B (paper eq. 8-11).  This module runs that loop
   on Par_kernel.fan, one job per shift, with two properties the
   algorithms above rely on:

   - Factorisation reuse: the symbolic analysis of the sparse LU (pattern
     assembly, fill-reducing ordering, elimination structure) is done once
     per run through [Dss.multi_shift]; each job pays only a numeric
     refactorisation per shift.

   - Determinism: each job's columns are a pure function of (system,
     task) — never of which worker computed them or when — and the fan
     returns them in task order.  Parallel and serial runs therefore
     produce bitwise-identical columns, which CI enforces. *)

open Pmtbr_la
open Pmtbr_lti

type task = { s : Complex.t; rhs : Mat.t; hermitian : bool }

type stats = { solves : int; factor_s : float; solve_s : float; pool : Par_kernel.pool }

let is_effectively_real (s : Complex.t) =
  Float.abs s.Complex.im <= 1e-300 +. (1e-12 *. Float.abs s.Complex.re)

(* Raw real columns for one solved sample (step 5 of Algorithm 1): a
   complex sample at +j w also stands for its conjugate at -j w, and
   span{z, z*} = span{Re z, Im z} over the reals, so the real and
   imaginary parts become two real columns.  Points with numerically zero
   imaginary part contribute only their real columns. *)
let realify (cols : Complex.t array array) ~is_real =
  let re = Array.map (fun (z : Complex.t) -> z.re) in
  let im = Array.map (fun (z : Complex.t) -> z.im) in
  if is_real then Array.map re cols
  else Array.init (2 * Array.length cols) (fun j -> (if j land 1 = 0 then re else im) cols.(j / 2))

let now () = Unix.gettimeofday ()

let run ?(workers = 0) ?ms sys (tasks : task array) =
  let nt = Array.length tasks in
  if nt = 0 then invalid_arg "Shift_engine.run: no tasks";
  (* the template shift is the first task's — independent of the worker
     count, so serial and parallel runs share it.  A caller that extends
     a sample set incrementally ([Sample_cache]) passes its own handle so
     the symbolic analysis is shared across batches too. *)
  let ms = match ms with Some ms -> ms | None -> Dss.multi_shift ~template:tasks.(0).s sys in
  (* one job: factor (numeric refactorisation through the shared handle),
     solve, realify; the timings are observational only *)
  let job i =
    let t = tasks.(i) in
    let t0 = now () in
    let f = Dss.multi_factor ms ~hermitian:t.hermitian t.s in
    let t1 = now () in
    let cols = Dss.multi_solve_factored f ~hermitian:t.hermitian t.rhs in
    let cols = realify cols ~is_real:(is_effectively_real t.s) in
    (cols, t1 -. t0, now () -. t1)
  in
  let done_, pool = Par_kernel.fan ~workers nt job in
  let sum f = Array.fold_left (fun acc d -> acc +. f d) 0.0 done_ in
  ( Array.concat (Array.to_list (Array.map (fun (cols, _, _) -> cols) done_)),
    {
      solves = nt;
      factor_s = sum (fun (_, f, _) -> f);
      solve_s = sum (fun (_, _, s) -> s);
      pool;
    } )
