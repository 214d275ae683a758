(* The LR-ADI accumulator that recompresses its factor at every flush,
   whatever its width: on a many-port system whose factor reaches the
   state count, each flush eigendecomposes a Gram wider than n x n.
   [Lr_lyap.lr_adi] keeps this loop while its factor stays tall and
   switches to the n x n Gramian once it is wide; test_lr_lyap pins the
   two against each other (bitwise while tall, at round-off once wide)
   and bench/lyap_bench reports both eigendecomposition counts.

   The iteration, the shift handling and the stop rule are the library's
   own; Penzl shifts come from [Lr_lyap.penzl_shifts] on the given
   operators, with their solves counted through a wrapped [solve_shift].
   Beside the factor and its stats, [lr_adi] returns the most columns a
   flush held (the factor plus its pending blocks): the library's
   accumulator goes wide exactly when that reaches the state count. *)

open Pmtbr_la

let re_block n (cols : Complex.t array array) =
  Mat.init n (Array.length cols) (fun i j -> cols.(j).(i).Complex.re)

let im_block n (cols : Complex.t array array) =
  Mat.init n (Array.length cols) (fun i j -> cols.(j).(i).Complex.im)

let is_effectively_real (p : Complex.t) =
  Float.abs p.Complex.im <= 1e-300 +. (1e-12 *. Float.abs p.Complex.re)

let low_rank_fro (w : Mat.t) = Mat.frobenius (Mat.gram w)

let band_residual (ops : Lr_lyap.ops) pts (w : Mat.t) =
  if w.Mat.cols = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iter
      (fun ((s : Complex.t), weight) ->
        let cols = ops.Lr_lyap.solve_shift (Complex.neg s) w in
        let sq = ref 0.0 in
        Array.iter
          (fun col ->
            Array.iter (fun z -> sq := !sq +. Complex.norm2 z) col)
          cols;
        acc := !acc +. (weight *. !sq))
      pts;
    sqrt !acc
  end

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

let lr_adi ?shifts ?num_shifts ?ritz ?(tol = 1e-10) ?(max_steps = 200)
    ?(stop = Lr_lyap.Residual_fro) (ops : Lr_lyap.ops) (b : Mat.t) =
  if b.Mat.rows <> ops.Lr_lyap.n then
    invalid_arg "Factor_adi.lr_adi: right-hand side row count does not match n";
  let solves = ref 0 and compressions = ref 0 and widest = ref 0 in
  let ops =
    {
      ops with
      Lr_lyap.solve_shift =
        (fun p r ->
          incr solves;
          ops.Lr_lyap.solve_shift p r);
    }
  in
  let finish ~steps ~columns ~residuals ~converged z =
    ( z,
      {
        Lr_lyap.steps;
        solves = !solves;
        columns;
        compressions = !compressions;
        residuals = Array.of_list (List.rev residuals);
        converged;
      },
      !widest )
  in
  if ops.Lr_lyap.n = 0 || b.Mat.cols = 0 then
    finish ~steps:0 ~columns:0 ~residuals:[] ~converged:true
      (Mat.create ops.Lr_lyap.n 0)
  else begin
    let shifts =
      match shifts with
      | Some s ->
          if Array.length s = 0 then
            invalid_arg "Factor_adi.lr_adi: empty shift array";
          Array.iter
            (fun (p : Complex.t) ->
              if not (p.Complex.re < 0.0) then
                invalid_arg "Factor_adi.lr_adi: shifts must have Re p < 0")
            s;
          Array.copy s
      | None -> Lr_lyap.penzl_shifts ?num:num_shifts ?ritz ops b
    in
    let ns = Array.length shifts in
    let den_fro = Float.max 1e-300 (low_rank_fro b) in
    let den_stop =
      match stop with
      | Lr_lyap.Residual_fro -> den_fro
      | Lr_lyap.Band_residual pts -> Float.max 1e-300 (band_residual ops pts b)
    in
    let ctol = Float.max 1e-8 (0.01 *. tol) in
    let flush_at = max 16 (2 * b.Mat.cols) in
    let w = ref (Mat.copy b) in
    let z_acc = ref (Mat.create ops.Lr_lyap.n 0) in
    let pending = ref [] and pending_cols = ref 0 in
    let flush ~final () =
      widest := max !widest ((!z_acc).Mat.cols + !pending_cols);
      if !pending_cols > 0 then begin
        let fresh = assemble ops.Lr_lyap.n !pending in
        z_acc :=
          if (!z_acc).Mat.cols = 0 then fresh else Mat.hcat !z_acc fresh;
        pending := [];
        pending_cols := 0;
        z_acc := compress_factor ~cutoff:ctol ~compressions !z_acc
      end
      else if final && (!z_acc).Mat.cols > 0 then
        z_acc := compress_factor ~cutoff:ctol ~compressions !z_acc
    in
    let residuals = ref [] in
    let steps = ref 0 and converged = ref false and cursor = ref 0 in
    while (not !converged) && !steps < max_steps do
      let p = shifts.(!cursor mod ns) in
      incr cursor;
      let vc = ops.Lr_lyap.solve_shift p !w in
      let alpha = p.Complex.re in
      if is_effectively_real p then begin
        let v = re_block ops.Lr_lyap.n vc in
        pending := Mat.scale (sqrt (-2.0 *. alpha)) v :: !pending;
        pending_cols := !pending_cols + v.Mat.cols;
        w := Mat.sub !w (Mat.scale (2.0 *. alpha) (ops.Lr_lyap.mul_e v));
        incr steps
      end
      else begin
        let vr = re_block ops.Lr_lyap.n vc and vi = im_block ops.Lr_lyap.n vc in
        let delta = alpha /. p.Complex.im in
        let v1 = Mat.add vr (Mat.scale delta vi) in
        let v2 = Mat.scale (sqrt ((delta *. delta) +. 1.0)) vi in
        pending :=
          Mat.scale (2.0 *. sqrt (-.alpha)) (Mat.hcat v1 v2) :: !pending;
        pending_cols := !pending_cols + v1.Mat.cols + v2.Mat.cols;
        w := Mat.sub !w (Mat.scale (4.0 *. alpha) (ops.Lr_lyap.mul_e v1));
        steps := !steps + 2
      end;
      if !pending_cols >= flush_at then flush ~final:false ();
      let rel_fro = low_rank_fro !w /. den_fro in
      residuals := rel_fro :: !residuals;
      (match stop with
      | Lr_lyap.Residual_fro -> if rel_fro <= tol then converged := true
      | Lr_lyap.Band_residual pts ->
          if !cursor mod ns = 0 || rel_fro <= tol then begin
            let rel = band_residual ops pts !w /. den_stop in
            if rel <= tol then converged := true
          end)
    done;
    flush ~final:true ();
    finish ~steps:!steps ~columns:(!z_acc).Mat.cols ~residuals:!residuals
      ~converged:!converged !z_acc
  end
