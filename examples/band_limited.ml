(* Frequency-selective reduction of a multi-pin connector (paper Fig. 11).

     dune exec examples/band_limited.exe

   The connector model has resonances both inside and outside the 0-8 GHz
   band of interest.  Plain TBR spends its states on the largest features
   regardless of where they live; frequency-selective PMTBR samples only the
   band that matters and gets a smaller, more accurate in-band model. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

let ghz w = w /. (2.0 *. Float.pi *. 1e9)

let () =
  let sys = Dss.of_netlist (Pmtbr_circuit.Connector.generate ()) in
  let w_band = Pmtbr_circuit.Connector.band_of_interest in
  Printf.printf "connector model: %d states; band of interest: DC - %.0f GHz\n"
    (Dss.order sys) (ghz w_band);

  (* Frequency-selective PMTBR (Algorithm 2): all samples inside the band. *)
  let pm = Pmtbr.reduce ~order:18 sys (Sampling.points (Sampling.Bands [ (0.0, w_band) ]) ~count:40) in
  Printf.printf "band-limited PMTBR model: %d states\n" (Dss.order pm.Pmtbr.rom);

  (* Exact TBR at substantially higher order, for comparison. *)
  let tbr = Tbr.reduce_dss ~order:30 sys in
  Printf.printf "TBR model: %d states\n" (Dss.order tbr.Tbr.rom);

  (* Compare inside the band... *)
  let om_in = Vec.linspace (w_band /. 40.0) w_band 40 in
  let href_in = Freq.sweep sys om_in in
  Printf.printf "in-band error:  PMTBR(18) %.2e   TBR(30) %.2e\n"
    (Freq.max_rel_error href_in (Freq.sweep pm.Pmtbr.rom om_in))
    (Freq.max_rel_error href_in (Freq.sweep tbr.Tbr.rom om_in));

  (* ...and outside it, where the PMTBR model never promised anything. *)
  let om_out = Vec.linspace w_band (2.5 *. w_band) 40 in
  let href_out = Freq.sweep sys om_out in
  Printf.printf "out-of-band error: PMTBR(18) %.2e   TBR(30) %.2e\n"
    (Freq.max_rel_error href_out (Freq.sweep pm.Pmtbr.rom om_out))
    (Freq.max_rel_error href_out (Freq.sweep tbr.Tbr.rom om_out));
  print_endline "(PMTBR trades out-of-band fidelity for in-band accuracy, by construction)"
