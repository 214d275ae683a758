(* Benchmark of the realizable-ROM pipeline added in PR 8:

   - streaming-reader throughput: a >= 100k-element rc-mesh netlist is
     rendered once and re-parsed through [Spice.parse_string] (line-at-a-
     time tokenizer feeding the canonical IR), reporting elements/s and
     MB/s;
   - the one-Gramian passive reduction against the two-sided baseline on
     a 30-port substrate: the passive scheme factors ONE Gramian through
     the shared multi-shift handle, so its shifted-solve RHS-column count
     must be <= 0.55x the two-sided [Tbr_lr] count (the remainder is the
     Penzl shift warm-up both methods pay once);
   - the synthesis roundtrip: the reduced model realized as an R/C
     netlist must re-parse, stamp and sweep back to the in-memory ROM
     within 1e-9, and the rendering must be generation-stable
     (render -> parse -> render is byte-identical).

   Emits BENCH_export.json in the current directory (a --smoke run writes it
   under _build/bench-smoke/ instead).  Run from the repo root:

     dune exec --profile release bench/export_bench.exe  # full run, all gates
     dune exec bench/export_bench.exe -- --smoke # CI: small operands,
                                                 # invariants only *)

open Pmtbr_lti

let now () = Unix.gettimeofday ()

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("[export_bench] FAIL: " ^ msg); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* Streaming parse throughput                                          *)
(* ------------------------------------------------------------------ *)

type parse_record = {
  mesh : int;
  elements : int;
  bytes : int;
  parse_wall_s : float;
  elements_per_s : float;
  mb_per_s : float;
}

let parse_case ~n ~reps =
  let nl = Pmtbr_circuit.Rc_mesh.generate ~rows:n ~cols:n ~ports:4 () in
  let text = Pmtbr_circuit.Spice.to_string nl in
  let r, c, l, k = Pmtbr_circuit.Netlist.stats nl in
  let elements = r + c + l + k in
  let bytes = String.length text in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    ignore (Pmtbr_circuit.Spice.ir (Pmtbr_circuit.Spice.parse_string text));
    best := Float.min !best (now () -. t0)
  done;
  let rec_ =
    {
      mesh = n;
      elements;
      bytes;
      parse_wall_s = !best;
      elements_per_s = float_of_int elements /. !best;
      mb_per_s = float_of_int bytes /. 1048576.0 /. !best;
    }
  in
  Printf.eprintf "[export_bench] parse %dx%d mesh: %d elements, %.1f MB, %.4f s (%.0f el/s)\n%!"
    n n elements (float_of_int bytes /. 1048576.0) !best rec_.elements_per_s;
  rec_

(* ------------------------------------------------------------------ *)
(* One-Gramian passive reduction vs the two-sided baseline             *)
(* ------------------------------------------------------------------ *)

type passive_record = {
  states : int;
  ports : int;
  order : int;
  passive_col_solves : int;
  tbr_lr_col_solves : int;
  col_solve_ratio : float;
  passive_wall_s : float;
  tbr_lr_wall_s : float;
  rom_cards : int;  (* elements of the synthesized netlist *)
  roundtrip_drift : float;  (* re-parsed ROM vs in-memory ROM, worst rel *)
  render_stable : bool;  (* render -> parse -> render is byte-identical *)
}

let passive_case ~ports ~internal ~order ~ratio_gate =
  let nl = Pmtbr_circuit.Substrate.generate ~ports ~internal ~seed:11 () in
  let sys = Dss.of_netlist nl in
  let t0 = now () in
  let red = Tbr_passive.reduce ~order sys in
  let pst = red.Tbr_passive.stats in
  let passive_wall = now () -. t0 in
  let t0 = now () in
  let lst = (Tbr_lr.reduce ~order sys).Tbr_lr.stats in
  let lr_wall = now () -. t0 in
  if pst.Tbr_passive.symbolic <> 1 then
    fail "%d symbolic analyses in the passive reduction, contract is 1" pst.Tbr_passive.symbolic;
  let ratio =
    float_of_int pst.Tbr_passive.col_solves /. float_of_int lst.Tbr_lr.col_solves
  in
  if ratio > ratio_gate then
    fail "col_solves ratio %.3f > %.2f (passive %d vs two-sided %d RHS columns)" ratio
      ratio_gate pst.Tbr_passive.col_solves lst.Tbr_lr.col_solves;
  (* synthesis roundtrip: realize, render, re-parse, re-render, sweep *)
  let ir = Tbr_passive.synthesize red in
  let gen1 = Pmtbr_circuit.Spice_ir.render ir in
  let reparsed = Pmtbr_circuit.Spice.parse_string gen1 in
  let gen2 =
    Pmtbr_circuit.Spice_ir.render
      (Pmtbr_circuit.Spice_ir.canonical (Pmtbr_circuit.Spice.ir reparsed))
  in
  let render_stable = String.equal gen1 gen2 in
  if not render_stable then fail "synthesized netlist is not render-stable across generations";
  let back = Dss.of_netlist (Pmtbr_circuit.Spice.netlist reparsed) in
  let omegas = Array.init 13 (fun i -> 10.0 ** (3.0 +. (float_of_int i /. 2.0))) in
  let ref_ = Freq.sweep red.Tbr_passive.rom omegas in
  let drift = Freq.stream_max_rel_error (Freq.compare_sweep back omegas ~ref_) in
  if drift > 1e-9 then fail "roundtrip drift %.3e > 1e-9" drift;
  let r, c, l, k = Pmtbr_circuit.Netlist.stats (Pmtbr_circuit.Spice.netlist reparsed) in
  let rec_ =
    {
      states = Dss.order sys;
      ports;
      order;
      passive_col_solves = pst.Tbr_passive.col_solves;
      tbr_lr_col_solves = lst.Tbr_lr.col_solves;
      col_solve_ratio = ratio;
      passive_wall_s = passive_wall;
      tbr_lr_wall_s = lr_wall;
      rom_cards = r + c + l + k;
      roundtrip_drift = drift;
      render_stable;
    }
  in
  Printf.eprintf
    "[export_bench] substrate %d ports, %d states -> order %d: col ratio %.3f (%d vs %d), \
     drift %.2e, %d ROM cards\n%!"
    ports rec_.states order ratio rec_.passive_col_solves rec_.tbr_lr_col_solves drift
    rec_.rom_cards;
  rec_

(* ------------------------------------------------------------------ *)

let json_of ~parse ~passive =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"parse\": {\n";
  Buffer.add_string buf (Printf.sprintf "    \"mesh\": %d,\n" parse.mesh);
  Buffer.add_string buf (Printf.sprintf "    \"elements\": %d,\n" parse.elements);
  Buffer.add_string buf (Printf.sprintf "    \"bytes\": %d,\n" parse.bytes);
  Buffer.add_string buf (Printf.sprintf "    \"parse_wall_s\": %.6f,\n" parse.parse_wall_s);
  Buffer.add_string buf (Printf.sprintf "    \"elements_per_s\": %.0f,\n" parse.elements_per_s);
  Buffer.add_string buf (Printf.sprintf "    \"mb_per_s\": %.2f\n" parse.mb_per_s);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"passive\": {\n";
  Buffer.add_string buf (Printf.sprintf "    \"states\": %d,\n" passive.states);
  Buffer.add_string buf (Printf.sprintf "    \"ports\": %d,\n" passive.ports);
  Buffer.add_string buf (Printf.sprintf "    \"order\": %d,\n" passive.order);
  Buffer.add_string buf
    (Printf.sprintf "    \"passive_col_solves\": %d,\n" passive.passive_col_solves);
  Buffer.add_string buf
    (Printf.sprintf "    \"tbr_lr_col_solves\": %d,\n" passive.tbr_lr_col_solves);
  Buffer.add_string buf
    (Printf.sprintf "    \"col_solve_ratio\": %.4f,\n" passive.col_solve_ratio);
  Buffer.add_string buf (Printf.sprintf "    \"passive_wall_s\": %.6f,\n" passive.passive_wall_s);
  Buffer.add_string buf (Printf.sprintf "    \"tbr_lr_wall_s\": %.6f,\n" passive.tbr_lr_wall_s);
  Buffer.add_string buf (Printf.sprintf "    \"rom_cards\": %d,\n" passive.rom_cards);
  Buffer.add_string buf
    (Printf.sprintf "    \"roundtrip_drift\": %.3e,\n" passive.roundtrip_drift);
  Buffer.add_string buf
    (Printf.sprintf "    \"render_stable\": %b\n" passive.render_stable);
  Buffer.add_string buf "  }\n"

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let parse, passive =
    if smoke then
      (* CI smoke: small operands, every invariant except the timing- and
         scale-sensitive gates (the solve-column ratio is looser on small
         operands, where the one-off shift warm-up is a larger share) *)
      ( parse_case ~n:60 ~reps:1,
        passive_case ~ports:8 ~internal:60 ~order:12 ~ratio_gate:0.75 )
    else begin
      let parse = parse_case ~n:230 ~reps:3 in
      if parse.elements < 100_000 then
        fail "parse operand has %d elements, need >= 100k" parse.elements;
      (* the acceptance operand: 30-port substrate, order 40 *)
      (parse, passive_case ~ports:30 ~internal:300 ~order:40 ~ratio_gate:0.55)
    end
  in
  let json = json_of ~parse ~passive in
  Util.write_json ~smoke ~file:"BENCH_export.json" json;
  Printf.eprintf "[export_bench] %s OK: col ratio %.3f, drift %.2e, %.0f elements/s\n%!"
    (if smoke then "smoke" else "full")
    passive.col_solve_ratio passive.roundtrip_drift parse.elements_per_s
