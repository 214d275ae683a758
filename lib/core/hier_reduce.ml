(* Hierarchical (domain-decomposed) PMTBR: the back half of the
   partition -> per-subdomain sampling -> interface-preserving
   recombination pipeline.

   Each subdomain runs the ordinary PMTBR sampling pipeline on its
   interior block — its own [Dss.multi_shift] handle inside a
   [Sample_cache] with the part's [Fixed_rhs] (ports + coupling
   directions) — yielding an orthonormal interior basis V_k.  The
   recombination basis is blkdiag(V_1 .. V_K, I_interface): interface
   states are kept exactly at this stage, so port behavior converges to
   the flat reduction as the subdomain bases do, and with untruncated
   bases the projection is an exact congruence transform of the full
   model.

   Recombination is split into a parallel and a trivial-serial half: the
   per-part congruence blocks (V^T E V, the contracted couplings, and
   the restricted port maps — all the O(interior) work) are computed by
   [project_part] inside each subdomain's job, and the serial [assemble]
   only scatters those already-small dense blocks into the (q x q)
   reduced pencil, an O(q^2) epilogue that never touches the mesh.

   [compress_interface] then optionally runs a second PMTBR pass over
   the assembled pencil's interface states: it samples the interface
   rows of X(s) = (sE - A)^{-1} B at the same quadrature points, SVDs
   the weight-scaled realified columns, and projects the trailing
   interface block through the dominant left subspace W with the
   congruence blkdiag(I, W).  Couplings are contracted *through* W but
   never sketched (PR 9 measured that cliff); interior blocks are
   untouched; with [tol] at zero rank selection keeps everything and the
   result is the exact-interface model again.

   Subdomains are fanned across the shared [Scheduler] domain pool.  Each
   subdomain job runs its solver and dense kernels with [workers:1] and
   everything it computes is a pure function of (partition, points,
   order/tol) — never of the pool size or the completion order — so the
   recombined ROM is bitwise-identical for any worker count, the same
   contract Shift_engine established (the compression SVD inherits the
   tournament-Jacobi bitwise worker-invariance from Par_kernel). *)

open Pmtbr_la
open Pmtbr_lti

type sub = {
  basis : Mat.t;
  singular_values : float array;
  sub_order : int;
  solves : int;
}

type blocks = {
  eh : Mat.t;
  ah : Mat.t;
  e_igr : Mat.t;
  a_igr : Mat.t;
  e_gir : Mat.t;
  a_gir : Mat.t;
  bh : Mat.t;
  ch : Mat.t;
}

type stats = {
  parts : int;
  depth : int;
  interface : int;
  interface_kept : int;
  states : int;
  order : int;
  sub_orders : int array;
  solves : int;
  sub_wall_s : float array;
  sample_wall_s : float;
  recombine_wall_s : float;
  compress_wall_s : float;
}

(* ------------------------------------------------------------------ *)
(* Per-subdomain sampling                                               *)
(* ------------------------------------------------------------------ *)

let sample_part ?(workers = 1) ?(oversubscribe = false) (part : Partition.part) points =
  let cache =
    Sample_cache.create ~workers ~oversubscribe ~source:(Sample_cache.Fixed_rhs part.Partition.rhs)
      part.Partition.sys
  in
  Sample_cache.extend cache points;
  cache

let basis_of_part ?order ?tol ?(workers = 1) (part : Partition.part) cache ~samples () =
  let r =
    Pmtbr.of_cache part.Partition.sys cache ~scale:1.0 ?order ?tol ~workers ~samples ()
  in
  {
    basis = r.Pmtbr.basis;
    singular_values = r.Pmtbr.singular_values;
    sub_order = r.Pmtbr.basis.Mat.cols;
    solves = r.Pmtbr.stats.Sample_cache.solves;
  }

(* A part whose rhs has no columns (no ports, no couplings: a floating
   fragment) contributes nothing observable; its basis is empty. *)
let empty_sub (part : Partition.part) =
  {
    basis = Mat.create (Pmtbr_lti.Dss.order part.Partition.sys) 0;
    singular_values = [||];
    sub_order = 0;
    solves = 0;
  }

let reduce_part ?order ?tol (part : Partition.part) points =
  if part.Partition.rhs.Mat.cols = 0 then empty_sub part
  else
    let cache = sample_part part points in
    basis_of_part ?order ?tol part cache ~samples:(Array.length points) ()

(* ------------------------------------------------------------------ *)
(* Per-part congruence blocks (the parallel half of recombination)      *)
(* ------------------------------------------------------------------ *)

(* Everything O(interior) for one part: the projected diagonal blocks
   V^T E V / V^T A V, the couplings contracted with V on the interior
   side (interface side exact), and the port maps restricted to the
   interior and contracted.  Pure in (partition, basis); runs inside the
   part's scheduler job so the serial assembly never touches the mesh. *)
let project_part (pt : Partition.t) i (v : Mat.t) =
  let part = pt.Partition.parts.(i) in
  let m = Array.length pt.Partition.interface in
  let p = pt.Partition.p in
  let qi = v.Mat.cols in
  let vt = Mat.transpose v in
  let eh = Mat.mul vt (Dss.apply_e part.Partition.sys v) in
  let ah = Mat.mul vt (Dss.apply_a part.Partition.sys v) in
  (* interior -> interface coupling: rows contract with V *)
  let contract_ig entries =
    let dst = Mat.create qi m in
    Array.iter
      (fun (l, g, x) ->
        for r = 0 to qi - 1 do
          Mat.update dst r g (fun acc -> acc +. (x *. Mat.get v l r))
        done)
      entries;
    dst
  in
  (* interface -> interior coupling: columns contract with V *)
  let contract_gi entries =
    let dst = Mat.create m qi in
    Array.iter
      (fun (g, l, x) ->
        for c = 0 to qi - 1 do
          Mat.update dst g c (fun acc -> acc +. (x *. Mat.get v l c))
        done)
      entries;
    dst
  in
  let bh = Mat.create qi p and ch = Mat.create p qi in
  Array.iteri
    (fun l gstate ->
      for j = 0 to p - 1 do
        let bval = Mat.get pt.Partition.b gstate j in
        if bval <> 0.0 then
          for r = 0 to qi - 1 do
            Mat.update bh r j (fun acc -> acc +. (bval *. Mat.get v l r))
          done;
        let cval = Mat.get pt.Partition.c j gstate in
        if cval <> 0.0 then
          for c = 0 to qi - 1 do
            Mat.update ch j c (fun acc -> acc +. (cval *. Mat.get v l c))
          done
      done)
    part.Partition.states;
  {
    eh;
    ah;
    e_igr = contract_ig part.Partition.e_ig;
    a_igr = contract_ig part.Partition.a_ig;
    e_gir = contract_gi part.Partition.e_gi;
    a_gir = contract_gi part.Partition.a_gi;
    bh;
    ch;
  }

(* ------------------------------------------------------------------ *)
(* Serial assembly (the O(q^2) epilogue)                                *)
(* ------------------------------------------------------------------ *)

(* Scatter the per-part blocks into the reduced pencil for the basis
   blkdiag(V_1..V_K, I_interface).  All loops run in fixed (partition)
   order; nothing here scales with the mesh. *)
let assemble (pt : Partition.t) (blks : blocks array) =
  let k = Array.length pt.Partition.parts in
  if Array.length blks <> k then invalid_arg "Hier_reduce.assemble: one block set per part";
  let offsets = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    offsets.(i + 1) <- offsets.(i) + blks.(i).eh.Mat.rows
  done;
  let goff = offsets.(k) in
  let m = Array.length pt.Partition.interface in
  let p = pt.Partition.p in
  let q = goff + m in
  let ehat = Mat.create q q and ahat = Mat.create q q in
  let bhat = Mat.create q p and chat = Mat.create p q in
  let copy dst r0 c0 (src : Mat.t) =
    for r = 0 to src.Mat.rows - 1 do
      for c = 0 to src.Mat.cols - 1 do
        Mat.set dst (r0 + r) (c0 + c) (Mat.get src r c)
      done
    done
  in
  Array.iteri
    (fun i blk ->
      let off = offsets.(i) in
      copy ehat off off blk.eh;
      copy ahat off off blk.ah;
      copy ehat off goff blk.e_igr;
      copy ahat off goff blk.a_igr;
      copy ehat goff off blk.e_gir;
      copy ahat goff off blk.a_gir;
      copy bhat off 0 blk.bh;
      copy chat 0 off blk.ch)
    blks;
  (* interface block and port rows, kept exactly *)
  Array.iter
    (fun (g1, g2, x) -> Mat.update ehat (goff + g1) (goff + g2) (fun acc -> acc +. x))
    pt.Partition.e_gg;
  Array.iter
    (fun (g1, g2, x) -> Mat.update ahat (goff + g1) (goff + g2) (fun acc -> acc +. x))
    pt.Partition.a_gg;
  Array.iteri
    (fun g gstate ->
      for j = 0 to p - 1 do
        Mat.set bhat (goff + g) j (Mat.get pt.Partition.b gstate j);
        Mat.set chat j (goff + g) (Mat.get pt.Partition.c j gstate)
      done)
    pt.Partition.interface;
  Dss.of_dense ~e:ehat ~a:ahat ~b:bhat ~c:chat

(* ------------------------------------------------------------------ *)
(* Recombination driver                                                 *)
(* ------------------------------------------------------------------ *)

let recombine ?(workers = 1) (pt : Partition.t) (bases : Mat.t array) =
  let k = Array.length pt.Partition.parts in
  if Array.length bases <> k then invalid_arg "Hier_reduce.recombine: one basis per part";
  let blks = Array.make k None in
  let run i = blks.(i) <- Some (project_part pt i bases.(i)) in
  let nw = max 1 (min workers k) in
  if nw <= 1 then
    for i = 0 to k - 1 do
      run i
    done
  else begin
    let pool = Scheduler.create ~workers:nw run in
    for i = 0 to k - 1 do
      ignore (Scheduler.submit pool i)
    done;
    Scheduler.stop pool
  end;
  assemble pt
    (Array.mapi
       (fun i b ->
         match b with
         | Some blk -> blk
         | None -> invalid_arg (Printf.sprintf "Hier_reduce.recombine: part %d never projected" i))
       blks)

(* ------------------------------------------------------------------ *)
(* Interface compression (second-pass PMTBR over the interface states)  *)
(* ------------------------------------------------------------------ *)

(* The assembled pencil keeps its interface block verbatim in the last
   [interface_count pt] rows/columns.  Sample the interface rows of
   X(s) = (sE - A)^{-1} B at the quadrature points (same sqrt-weight
   realification as the flat sampler), SVD, pick the rank with
   [Pmtbr.choose_order ~tol], and congruence-project the trailing block
   through W = dominant left vectors: T = blkdiag(I, W).  Couplings are
   contracted through W (exact on the interior side, never sketched);
   rank = interface means the model is returned unchanged — the exact
   fallback.  Returns (compressed model, interface states kept). *)
let compress_interface ?(workers = 1) ~tol (pt : Partition.t) (rom : Dss.t) points =
  let m = Array.length pt.Partition.interface in
  let q = Dss.order rom in
  let goff = q - m in
  let npts = Array.length points in
  if m = 0 || npts = 0 then (rom, m)
  else begin
    let b = Dss.b_matrix rom in
    let p = b.Mat.cols in
    let cols = Mat.create m (2 * p * npts) in
    Array.iteri
      (fun ip (pnt : Sampling.point) ->
        let x = Dss.shifted_solve_rhs rom pnt.Sampling.s b in
        let w = sqrt pnt.Sampling.weight in
        for j = 0 to p - 1 do
          let col = x.(j) in
          for r = 0 to m - 1 do
            let z = col.(goff + r) in
            Mat.set cols r (2 * ((ip * p) + j)) (w *. z.Complex.re);
            Mat.set cols r ((2 * ((ip * p) + j)) + 1) (w *. z.Complex.im)
          done
        done)
      points;
    let svd = Svd.decompose ~workers cols in
    let rank = min m (Pmtbr.choose_order ~sigma:svd.Svd.sigma ~tol ()) in
    if rank >= m then (rom, m)
    else begin
      let w = Svd.left_vectors svd rank in
      let t = Mat.create q (goff + rank) in
      for i = 0 to goff - 1 do
        Mat.set t i i 1.0
      done;
      for i = 0 to m - 1 do
        for j = 0 to rank - 1 do
          Mat.set t (goff + i) (goff + j) (Mat.get w i j)
        done
      done;
      (Dss.project_congruence rom t, rank)
    end
  end

(* ------------------------------------------------------------------ *)
(* Fan-out driver                                                       *)
(* ------------------------------------------------------------------ *)

let reduce_partitioned ?order ?tol ?interface_tol ?workers ?(oversubscribe = false)
    (pt : Partition.t) points =
  let k = Array.length pt.Partition.parts in
  let requested = match workers with Some w -> w | None -> Par_kernel.default_workers () in
  let cap = if oversubscribe then requested else Domain.recommended_domain_count () in
  let nw = max 1 (min (min requested cap) k) in
  if requested > 1 && nw = 1 && k > 1 then
    Par_kernel.warn_worker_collapse ~context:"the hierarchical subdomain pool" ~requested ();
  let results : ((sub * blocks), exn) result option array = Array.make k None in
  let walls = Array.make k 0.0 in
  (* one job = sample + basis + congruence blocks: all the O(interior)
     work, so the serial stages below never touch the mesh *)
  let run i =
    let t0 = Unix.gettimeofday () in
    let r =
      try
        let s = reduce_part ?order ?tol pt.Partition.parts.(i) points in
        Ok (s, project_part pt i s.basis)
      with e -> Error e
    in
    walls.(i) <- Unix.gettimeofday () -. t0;
    results.(i) <- Some r
  in
  let t_fan = Unix.gettimeofday () in
  if nw <= 1 then
    for i = 0 to k - 1 do
      run i
    done
  else begin
    let pool = Scheduler.create ~workers:nw run in
    for i = 0 to k - 1 do
      ignore (Scheduler.submit pool i)
    done;
    Scheduler.stop pool
  end;
  let sample_wall_s = Unix.gettimeofday () -. t_fan in
  (* propagate the lowest-index failure, as Shift_engine does *)
  let done_ =
    Array.mapi
      (fun i r ->
        match r with
        | Some (Ok sb) -> sb
        | Some (Error e) -> raise e
        | None -> invalid_arg (Printf.sprintf "Hier_reduce: subdomain %d never ran" i))
      results
  in
  let subs = Array.map fst done_ in
  let t_asm = Unix.gettimeofday () in
  let rom = assemble pt (Array.map snd done_) in
  let recombine_wall_s = Unix.gettimeofday () -. t_asm in
  let interface = Array.length pt.Partition.interface in
  let t_cmp = Unix.gettimeofday () in
  let rom, interface_kept =
    match interface_tol with
    | None -> (rom, interface)
    | Some itol -> compress_interface ~workers:nw ~tol:itol pt rom points
  in
  let compress_wall_s =
    match interface_tol with None -> 0.0 | Some _ -> Unix.gettimeofday () -. t_cmp
  in
  let stats =
    {
      parts = k;
      depth = Partition.tree_depth pt;
      interface;
      interface_kept;
      states = pt.Partition.n;
      order = Dss.order rom;
      sub_orders = Array.map (fun s -> s.sub_order) subs;
      solves = Array.fold_left (fun acc (s : sub) -> acc + s.solves) 0 subs;
      sub_wall_s = walls;
      sample_wall_s;
      recombine_wall_s;
      compress_wall_s;
    }
  in
  (rom, stats)
