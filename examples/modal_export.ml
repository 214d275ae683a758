(* Exporting a reduced model in pole-residue form.

     dune exec examples/modal_export.exe

   After reduction, downstream behavioural simulators usually want the
   model as a rational function H(s) = sum R_i / (s - p_i) rather than as
   state-space matrices.  This example reduces the multi-pin connector,
   extracts the modal form, prints the dominant modes, and verifies the
   pole-residue reconstruction against the state-space model. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

let ghz w = w /. (2.0 *. Float.pi *. 1e9)

let () =
  let sys = Dss.of_netlist (Pmtbr_circuit.Connector.generate ()) in
  let w_band = Pmtbr_circuit.Connector.band_of_interest in

  (* band-limited reduction to a compact model *)
  let r =
    Pmtbr.reduce ~order:14 sys (Sampling.points (Sampling.Bands [ (0.0, w_band) ]) ~count:36)
  in
  Printf.printf "reduced %d -> %d states\n" (Dss.order sys) (Dss.order r.Pmtbr.rom);

  (* modal decomposition of the reduced model *)
  let modal = Modal.decompose r.Pmtbr.rom in
  Printf.printf "%d modes; dominant ones:\n" modal.Modal.order;
  print_endline "  f_res (GHz)   damping (1/ns)   |residue|";
  List.iter
    (fun { Modal.pole; residue } ->
      Printf.printf "  %9.3f   %12.4f   %.3e\n"
        (ghz (Float.abs pole.Complex.im))
        (-.pole.Complex.re /. 1e9)
        (Cmat.max_abs residue))
    (Modal.dominant ~count:6 modal);

  (* verify: the pole-residue sum reproduces the reduced model *)
  let worst = ref 0.0 in
  Array.iter
    (fun w ->
      let s = { Complex.re = 0.0; im = w } in
      let h1 = Cmat.get (Freq.eval r.Pmtbr.rom s) 0 0 in
      let h2 = Cmat.get (Modal.eval modal s) 0 0 in
      worst := Float.max !worst (Complex.norm (Complex.sub h1 h2) /. Complex.norm h1))
    (Vec.linspace (w_band /. 30.0) w_band 30);
  Printf.printf "pole-residue vs state-space worst relative mismatch: %.2e\n" !worst;

  (* sanity: every pole stable *)
  let unstable =
    List.exists (fun { Modal.pole; _ } -> pole.Complex.re > 0.0) modal.Modal.modes
  in
  Printf.printf "all poles stable: %b\n" (not unstable);

  (* moment check at the centre of the band: the reduced model reproduces
     the low-order moments of the full model *)
  let s0 = { Complex.re = w_band /. 10.0; im = 0.0 } in
  Printf.printf "relative mismatch of the first 2 moments at s0: %.2e\n"
    (Moments.mismatch sys r.Pmtbr.rom ~s0 ~count:2)
