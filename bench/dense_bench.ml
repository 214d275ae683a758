(* Wall-clock benchmark of the dense kernel layer (Par_kernel).

   PRs 1-3 made the shifted-solve stage scale; this bench gates the other
   half of the pipeline: the SVD/QR/GEMM reduction stage on a real
   1000+-state sample matrix.  The headline comparison is

   - serial cyclic Jacobi ([Svd.decompose_cyclic], the original reference:
     cyclic sweeps over the full n x c sample matrix), vs
   - the kernel-layer path ([Svd.decompose ~workers], blocked Householder
     QR preconditioning to the c x c triangular factor + round-robin
     Jacobi rounds + packed-reflector U recovery),

   with the QR (unblocked reference vs panel-blocked) and GEMM (naive vs
   row-panelled) kernels recorded alongside.

   Invariants asserted on every pass (both modes):

   - GEMM/gram and the blocked QR are bitwise-identical to the naive
     [Mat] kernels / the unblocked serial sweep, for every worker count
     tried (the determinism contract CI relies on);
   - [Svd.values] is bitwise worker-invariant;
   - the round-robin singular values agree with the serial cyclic
     reference to 1e-12 relative to sigma_max.

   Emits BENCH_dense.json in the current directory (a --smoke run writes it
   under _build/bench-smoke/ instead).  Run from the repo root:

     dune exec bench/dense_bench.exe            # full run, 2x gate
     dune exec bench/dense_bench.exe -- --smoke # CI: tiny matrix,
                                                # invariants only *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core
open Pmtbr_oracle

let now () = Unix.gettimeofday ()

let time_best ?(reps = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    if dt < !best then begin
      best := dt;
      result := Some r
    end
  done;
  (Option.get !result, !best)

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* max_i |a_i - b_i| / max b, for descending singular-value arrays *)
let sigma_drift (a : float array) (b : float array) =
  if Array.length a <> Array.length b then infinity
  else begin
    let smax = Float.max 1e-300 (Float.max a.(0) b.(0)) in
    let worst = ref 0.0 in
    Array.iteri (fun i s -> worst := Float.max !worst (Float.abs (s -. b.(i)) /. smax)) a;
    !worst
  end

type record = {
  name : string;
  states : int;
  sample_columns : int;
  workers : int;
  svd_cyclic_wall_s : float;
  svd_kernel_wall_s : float;
  svd_speedup : float;
  qr_reference_wall_s : float;
  qr_blocked_wall_s : float;
  qr_speedup : float;
  gemm_naive_wall_s : float;
  gemm_kernel_wall_s : float;
  gemm_speedup : float;
  sigma_rel_drift : float;
}

(* The determinism contract, checked on the actual bench operand: every
   kernel bitwise-identical to its serial reference at every worker
   count, and the round-robin sigma within 1e-12 relative of the cyclic
   reference. *)
let invariant_checks ~name ~(zw : Mat.t) ~workers =
  let small = Mat.gram zw in
  List.iter
    (fun w ->
      if not (bitwise_equal (Par_kernel.mul ~workers:w (Mat.transpose zw) zw) (Mat.mul (Mat.transpose zw) zw))
      then failwith (Printf.sprintf "%s: Par_kernel.mul differs from Mat.mul at workers=%d" name w);
      if not (bitwise_equal (Par_kernel.gram ~workers:w zw) small) then
        failwith (Printf.sprintf "%s: Par_kernel.gram differs from Mat.gram at workers=%d" name w);
      let q, r = Qr.thin ~workers:w zw in
      let q_ref, r_ref = Qr.thin_reference zw in
      if not (bitwise_equal q q_ref && bitwise_equal r r_ref) then
        failwith (Printf.sprintf "%s: blocked QR differs from reference at workers=%d" name w))
    [ 1; workers ];
  let s1 = Svd.values ~workers:1 zw in
  let sw = Svd.values ~workers zw in
  if s1 <> sw then failwith (name ^ ": Svd.values is not worker-invariant");
  let drift = sigma_drift sw (Svd.values_cyclic zw) in
  if drift > 1e-12 then
    failwith (Printf.sprintf "%s: round-robin sigma drift %.3e > 1e-12" name drift);
  Printf.eprintf "[dense_bench] %s: determinism OK (sigma drift %.2e)\n%!" name drift;
  drift

let bench_case ~name ~sys ~points ~workers ~reps =
  (* the reduction stage's actual operand: the realified weighted sample
     matrix of a PMTBR run (sampling stage outside the timed region) *)
  let zw = Zmat.build sys points in
  Printf.eprintf "[dense_bench] %s: %d states, %d sample columns\n%!" name zw.Mat.rows
    zw.Mat.cols;
  let drift = invariant_checks ~name ~zw ~workers in
  let cyclic, svd_cyclic_wall = time_best ~reps (fun () -> Svd.decompose_cyclic zw) in
  let kernel, svd_kernel_wall = time_best ~reps (fun () -> Svd.decompose ~workers zw) in
  ignore (sigma_drift cyclic.Svd.sigma kernel.Svd.sigma);
  let _, qr_reference_wall = time_best ~reps (fun () -> Qr.thin_reference zw) in
  let _, qr_blocked_wall = time_best ~reps (fun () -> Qr.thin ~workers zw) in
  let zwt = Mat.transpose zw in
  let _, gemm_naive_wall = time_best ~reps (fun () -> Mat.mul zwt zw) in
  let _, gemm_kernel_wall = time_best ~reps (fun () -> Par_kernel.mul ~workers zwt zw) in
  let r =
    {
      name;
      states = zw.Mat.rows;
      sample_columns = zw.Mat.cols;
      workers;
      svd_cyclic_wall_s = svd_cyclic_wall;
      svd_kernel_wall_s = svd_kernel_wall;
      svd_speedup = svd_cyclic_wall /. svd_kernel_wall;
      qr_reference_wall_s = qr_reference_wall;
      qr_blocked_wall_s = qr_blocked_wall;
      qr_speedup = qr_reference_wall /. qr_blocked_wall;
      gemm_naive_wall_s = gemm_naive_wall;
      gemm_kernel_wall_s = gemm_kernel_wall;
      gemm_speedup = gemm_naive_wall /. gemm_kernel_wall;
      sigma_rel_drift = drift;
    }
  in
  Printf.eprintf
    "[dense_bench]   SVD cyclic %.4f s, kernel %.4f s: %.2fx | QR %.4f -> %.4f s | GEMM %.4f \
     -> %.4f s\n\
     %!"
    svd_cyclic_wall svd_kernel_wall r.svd_speedup qr_reference_wall qr_blocked_wall
    gemm_naive_wall gemm_kernel_wall;
  r

let json_of_records records =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"name\": %S,\n" r.name);
      Buffer.add_string buf (Printf.sprintf "      \"states\": %d,\n" r.states);
      Buffer.add_string buf (Printf.sprintf "      \"sample_columns\": %d,\n" r.sample_columns);
      Buffer.add_string buf (Printf.sprintf "      \"workers\": %d,\n" r.workers);
      Buffer.add_string buf
        (Printf.sprintf "      \"svd_cyclic_wall_s\": %.6f,\n" r.svd_cyclic_wall_s);
      Buffer.add_string buf
        (Printf.sprintf "      \"svd_kernel_wall_s\": %.6f,\n" r.svd_kernel_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"svd_speedup\": %.3f,\n" r.svd_speedup);
      Buffer.add_string buf
        (Printf.sprintf "      \"qr_reference_wall_s\": %.6f,\n" r.qr_reference_wall_s);
      Buffer.add_string buf
        (Printf.sprintf "      \"qr_blocked_wall_s\": %.6f,\n" r.qr_blocked_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"qr_speedup\": %.3f,\n" r.qr_speedup);
      Buffer.add_string buf
        (Printf.sprintf "      \"gemm_naive_wall_s\": %.6f,\n" r.gemm_naive_wall_s);
      Buffer.add_string buf
        (Printf.sprintf "      \"gemm_kernel_wall_s\": %.6f,\n" r.gemm_kernel_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"gemm_speedup\": %.3f,\n" r.gemm_speedup);
      Buffer.add_string buf
        (Printf.sprintf "      \"sigma_rel_drift\": %.3e\n" r.sigma_rel_drift);
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "  ]\n"

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let records =
    if smoke then begin
      (* CI smoke: tiny mesh, every determinism invariant, no timing gate *)
      let sys = Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows:8 ~cols:8 ~ports:2 ()) in
      let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:8 in
      [ bench_case ~name:"rc-mesh-8x8-smoke" ~sys ~points:pts ~workers:4 ~reps:1 ]
    end
    else begin
      (* 33x33 mesh = 1089 states; 24 complex points realify to 96 sample
         columns — the tall-skinny shape every PMTBR reduction SVDs *)
      let sys = Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows:33 ~cols:33 ~ports:2 ()) in
      let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:24 in
      [ bench_case ~name:"rc-mesh-33x33" ~sys ~points:pts ~workers:4 ~reps:3 ]
    end
  in
  let json = json_of_records records in
  Util.write_json ~smoke ~file:"BENCH_dense.json" json;
  if not smoke then begin
    (* acceptance gate: the kernel-layer SVD must be >= 2x the serial
       cyclic reference on the reduction-stage operand *)
    let r = List.hd records in
    if r.svd_speedup < 2.0 then begin
      Printf.eprintf "[dense_bench] FAIL: %s SVD speedup %.2fx < 2x\n%!" r.name r.svd_speedup;
      exit 1
    end;
    Printf.eprintf "[dense_bench] OK: %s SVD speedup %.2fx\n%!" r.name r.svd_speedup
  end
  else Printf.eprintf "[dense_bench] smoke OK\n%!"
