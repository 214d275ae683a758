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

   Subdomains fan out on [Par_kernel.fan], one job per part.  Each job
   runs its solver and dense kernels with [workers:1] and everything it
   computes is a pure function of (partition, points, order/tol) — never
   of the pool size or the completion order — so the recombined ROM is
   bitwise-identical for any worker count, the same contract
   Shift_engine established (the compression SVD inherits the
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
  pool : Par_kernel.pool;
  recombine_wall_s : float;
  compress_wall_s : float;
}

(* ------------------------------------------------------------------ *)
(* Per-subdomain sampling                                               *)
(* ------------------------------------------------------------------ *)

let sample_part ?(workers = 1) (part : Partition.part) points =
  let cache =
    Sample_cache.create ~workers ~source:(Sample_cache.Fixed_rhs part.Partition.rhs)
      part.Partition.sys
  in
  Sample_cache.extend cache points;
  cache

(* The part's basis only: [project_part] does the projection, contracting
   the couplings and port maps with the same basis. *)
let basis_of_part ?order ?tol ?(workers = 1) (_ : Partition.part) cache ~samples:_ () =
  let basis, singular_values = Pmtbr.basis_of_cache cache ~scale:1.0 ?order ?tol ~workers () in
  {
    basis;
    singular_values;
    sub_order = basis.Mat.cols;
    solves = (Sample_cache.stats cache).Sample_cache.solves;
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
   part's fan job so the serial assembly never touches the mesh. *)
let project_part (pt : Partition.t) i (v : Mat.t) =
  let part = pt.Partition.parts.(i) in
  let m = Array.length pt.Partition.interface in
  let p = pt.Partition.p in
  let qi = v.Mat.cols in
  let vd = v.Mat.data in
  let vt = Mat.transpose v in
  let eh = Mat.mul vt (Dss.apply_e part.Partition.sys v) in
  let ah = Mat.mul vt (Dss.apply_a part.Partition.sys v) in
  (* interior -> interface coupling: rows contract with V *)
  let contract_ig entries =
    let dst = Mat.create qi m in
    let dd = dst.Mat.data in
    Array.iter
      (fun (l, g, x) ->
        for r = 0 to qi - 1 do
          let k = (r * m) + g in
          dd.(k) <- dd.(k) +. (x *. vd.((l * qi) + r))
        done)
      entries;
    dst
  in
  (* interface -> interior coupling: columns contract with V *)
  let contract_gi entries =
    let dst = Mat.create m qi in
    let dd = dst.Mat.data in
    Array.iter
      (fun (g, l, x) ->
        let grow = g * qi and vrow = l * qi in
        for c = 0 to qi - 1 do
          dd.(grow + c) <- dd.(grow + c) +. (x *. vd.(vrow + c))
        done)
      entries;
    dst
  in
  let bh = Mat.create qi p and ch = Mat.create p qi in
  let gb = pt.Partition.b and gc = pt.Partition.c in
  let bhd = bh.Mat.data and chd = ch.Mat.data in
  Array.iteri
    (fun l gstate ->
      let vrow = l * qi in
      for j = 0 to p - 1 do
        let bval = gb.Mat.data.((gstate * gb.Mat.cols) + j) in
        if bval <> 0.0 then
          for r = 0 to qi - 1 do
            let k = (r * p) + j in
            bhd.(k) <- bhd.(k) +. (bval *. vd.(vrow + r))
          done;
        let cval = gc.Mat.data.((j * gc.Mat.cols) + gstate) in
        if cval <> 0.0 then begin
          let crow = j * qi in
          for c = 0 to qi - 1 do
            chd.(crow + c) <- chd.(crow + c) +. (cval *. vd.(vrow + c))
          done
        end
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
  assemble pt (fst (Par_kernel.fan ~workers k (fun i -> project_part pt i bases.(i))))

(* ------------------------------------------------------------------ *)
(* Interface compression (second-pass PMTBR over the interface states)  *)
(* ------------------------------------------------------------------ *)

(* The assembled pencil keeps its interface block verbatim in the last
   [interface_count pt] rows/columns.  Sample the interface rows of
   X(s) = (sE - A)^{-1} B at the quadrature points (same sqrt-weight
   realification as the flat sampler), SVD, pick the rank with
   [Tbr.choose_order ~tol], and congruence-project the trailing block
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
    let u, sigma = Svd.left ~workers cols in
    let rank = min m (Tbr.choose_order ~sigma ~tol ()) in
    if rank >= m then (rom, m)
    else begin
      let w = Mat.sub_cols u 0 rank in
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

(* The one hierarchical driver.  [columns i part] supplies part [i]'s
   sample cache: [reduce_partitioned] samples it afresh, the store finds
   it in (or adds it to) its per-subdomain samples tier.  Everything
   after the columns is shared, so both routes give the same bits. *)
let reduce_with_columns ?order ?tol ?interface_tol ?(workers = 0) ~columns (pt : Partition.t)
    points =
  let k = Array.length pt.Partition.parts in
  (* one job = columns + basis + congruence blocks: all the O(interior)
     work, so the serial stages below never touch the mesh *)
  let run i =
    let t0 = Unix.gettimeofday () in
    let part = pt.Partition.parts.(i) in
    let s =
      if part.Partition.rhs.Mat.cols = 0 then empty_sub part
      else basis_of_part ?order ?tol part (columns i part) ~samples:(Array.length points) ()
    in
    let blk = project_part pt i s.basis in
    (s, blk, Unix.gettimeofday () -. t0)
  in
  let done_, pool = Par_kernel.fan ~workers k run in
  let subs = Array.map (fun (s, _, _) -> s) done_ in
  let t_asm = Unix.gettimeofday () in
  let rom = assemble pt (Array.map (fun (_, blk, _) -> blk) done_) in
  let recombine_wall_s = Unix.gettimeofday () -. t_asm in
  let interface = Array.length pt.Partition.interface in
  let t_cmp = Unix.gettimeofday () in
  let rom, interface_kept =
    match interface_tol with
    | None -> (rom, interface)
    | Some itol -> compress_interface ~workers:pool.Par_kernel.workers ~tol:itol pt rom points
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
      sub_wall_s = Array.map (fun (_, _, wall) -> wall) done_;
      pool;
      recombine_wall_s;
      compress_wall_s;
    }
  in
  (rom, subs, stats)

let reduce_partitioned ?order ?tol ?interface_tol ?workers pt points =
  let rom, _, stats =
    reduce_with_columns ?order ?tol ?interface_tol ?workers
      ~columns:(fun _ part -> sample_part part points)
      pt points
  in
  (rom, stats)
