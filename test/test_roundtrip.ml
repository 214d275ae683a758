(* Realizable-ROM pipeline roundtrip properties (qcheck + alcotest):
   parse -> reduce (tbr-passive) -> synthesize -> re-parse -> stamp ->
   sweep must close on itself, render must be a fixpoint, and the
   one-Gramian scheme must match the two-sided baseline. *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti

let omegas_of nl =
  (* a decade around the mesh's corner region; generate-once grids keep
     the properties deterministic *)
  let _ = nl in
  Array.init 7 (fun i -> 10.0 ** (3.0 +. (float_of_int i /. 2.0)))

(* random RC meshes through the public generators, keyed by seed *)
let mesh_of_seed seed =
  let rows = 3 + (seed mod 4) and cols = 3 + (seed / 4 mod 4) in
  let ports = 1 + (seed mod 3) in
  let r = 50.0 +. float_of_int (seed mod 7) *. 25.0 in
  Rc_mesh.generate ~rows ~cols ~ports ~r ()

let substrate_of_seed seed =
  Substrate.generate ~ports:(2 + (seed mod 3)) ~internal:(40 + (seed mod 17)) ~seed ()

let netlist_gen =
  QCheck2.Gen.(
    map
      (fun (pick, seed) ->
        if pick then mesh_of_seed seed else substrate_of_seed seed)
      (pair bool (int_bound 999)))

let netlist_print nl =
  let r, c, l, k = Netlist.stats nl in
  Printf.sprintf "netlist{R=%d C=%d L=%d K=%d ports=%d nodes=%d}" r c l k
    (Netlist.port_count nl) (Netlist.node_count nl)

(* --- render fixpoint ------------------------------------------------- *)

let prop_render_fixpoint =
  QCheck2.Test.make ~name:"to_string is a one-generation fixpoint" ~count:40
    ~print:netlist_print netlist_gen (fun nl ->
      let s1 = Spice.to_string nl in
      let s2 = Spice.to_string (Spice.netlist (Spice.parse_string s1)) in
      String.equal s1 s2)

let prop_parse_channel_equals_string =
  QCheck2.Test.make ~name:"parse_channel agrees with parse_string" ~count:10
    ~print:netlist_print netlist_gen (fun nl ->
      let s = Spice.to_string nl in
      let of_string = Spice.ir (Spice.parse_string s) in
      let path = Filename.temp_file "pmtbr_rt" ".sp" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          output_string oc s;
          close_out oc;
          let of_file = Spice.ir (Spice.parse_file path) in
          Spice_ir.render of_string = Spice_ir.render of_file))

(* --- passive reduction closes the roundtrip -------------------------- *)

let roundtrip_drift nl =
  let sys = Dss.of_netlist nl in
  let red = Tbr_passive.reduce ~tol:1e-10 sys in
  let ir = Tbr_passive.synthesize red in
  let re_nl = Spice.netlist (Spice.parse_string (Spice_ir.render ir)) in
  let re_sys = Dss.of_netlist re_nl in
  let omegas = omegas_of nl in
  let ref_ = Freq.sweep red.Tbr_passive.rom omegas in
  let stream = Freq.compare_sweep re_sys omegas ~ref_ in
  Freq.stream_max_rel_error stream

let prop_roundtrip_matches_rom =
  QCheck2.Test.make
    ~name:"synthesized netlist re-parses to the same response (<= 1e-9)"
    ~count:15 ~print:netlist_print netlist_gen (fun nl ->
      roundtrip_drift nl <= 1e-9)

let prop_synthesis_render_stable =
  QCheck2.Test.make ~name:"synthesized netlist render is generation-stable"
    ~count:15 ~print:netlist_print netlist_gen (fun nl ->
      let sys = Dss.of_netlist nl in
      let red = Tbr_passive.reduce ~tol:1e-10 sys in
      let g1 = Spice_ir.render (Tbr_passive.synthesize red) in
      let g2 = Spice.to_string (Spice.netlist (Spice.parse_string g1)) in
      String.equal g1 g2)

(* --- passivity -------------------------------------------------------- *)

let prop_positive_real =
  QCheck2.Test.make ~name:"reduced model is positive-real on band points"
    ~count:15 ~print:netlist_print netlist_gen (fun nl ->
      let sys = Dss.of_netlist nl in
      let red = Tbr_passive.reduce ~tol:1e-10 sys in
      let pts =
        Pmtbr_core.Sampling.points
          (Pmtbr_core.Sampling.Bands [ (1e3, 1e7) ])
          ~count:9
      in
      let points = Array.map (fun p -> p.Pmtbr_core.Sampling.s) pts in
      let h_scale =
        Array.fold_left
          (fun acc s -> Float.max acc (Cmat.max_abs (Freq.eval red.Tbr_passive.rom s)))
          0.0 points
      in
      Tbr_passive.positive_real_residual red.Tbr_passive.rom points
      <= 1e-10 *. Float.max h_scale 1.0)

(* --- agreement with the two-sided baseline ---------------------------- *)

let hsv_agree () =
  let nl = substrate_of_seed 7 in
  let sys = Dss.of_netlist nl in
  let red = Tbr_passive.reduce ~order:12 sys in
  let lr = Tbr_lr.reduce ~order:12 sys in
  let k = min 8 (min (Array.length red.Tbr_passive.hsv) (Array.length lr.Tbr_lr.hsv)) in
  for i = 0 to k - 1 do
    let a = red.Tbr_passive.hsv.(i) and b = lr.Tbr_lr.hsv.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "hsv[%d] agree (%.3e vs %.3e)" i a b)
      true
      (Float.abs (a -. b) <= 1e-6 *. Float.max red.Tbr_passive.hsv.(0) 1e-300)
  done;
  (* responses of the two ROMs agree on the band *)
  let omegas = Array.init 9 (fun i -> 10.0 ** (3.0 +. float_of_int i /. 2.0)) in
  let ref_ = Freq.sweep lr.Tbr_lr.rom omegas in
  let stream = Freq.compare_sweep red.Tbr_passive.rom omegas ~ref_ in
  Alcotest.(check bool)
    "ROM responses agree" true
    (Freq.stream_max_rel_error stream <= 1e-6)

let col_solves_halved () =
  let nl = substrate_of_seed 3 in
  let sys = Dss.of_netlist nl in
  let passive = (Tbr_passive.reduce ~order:10 sys).Tbr_passive.stats in
  let two_sided = (Tbr_lr.reduce ~order:10 sys).Tbr_lr.stats in
  Alcotest.(check bool) "one symbolic analysis" true (passive.Tbr_passive.symbolic = 1);
  let ratio =
    float_of_int passive.Tbr_passive.col_solves
    /. float_of_int two_sided.Tbr_lr.col_solves
  in
  Alcotest.(check bool)
    (Printf.sprintf "col_solves ratio %.3f <= 0.62" ratio)
    true (ratio <= 0.62)

(* every node capacitively loaded so E stays nonsingular (the ADI shift
   machinery needs E^{-1}, as in Tbr_lr) *)
let rlck_ladder () =
  let nl = Netlist.create () in
  ignore (Netlist.add_port nl 1);
  let n = 12 in
  let lids = Array.make n 0 in
  for i = 1 to n do
    lids.(i - 1) <- Netlist.add_l nl i (i + 1) 1e-9;
    Netlist.add_c nl i 0 1e-12;
    Netlist.add_r nl i 0 1e4;
    Netlist.add_r nl i (i + 1) 0.3
  done;
  Netlist.add_c nl (n + 1) 0 1e-12;
  Netlist.add_r nl (n + 1) 0 50.0;
  Netlist.add_mutual nl lids.(0) lids.(1) 0.3;
  Netlist.add_mutual nl lids.(2) lids.(3) 0.2;
  nl

let rlck_j_symmetric () =
  (* the one-Gramian path must also hold for RLCk via the signature J *)
  let nl = rlck_ladder () in
  let sys = Dss.of_netlist nl in
  let inductors = Netlist.inductor_count nl in
  let red = Tbr_passive.reduce ~order:12 ~inductors sys in
  let stats = red.Tbr_passive.stats in
  Alcotest.(check bool) "order > 0" true (red.Tbr_passive.order >= 1);
  Alcotest.(check bool) "one symbolic" true (stats.Tbr_passive.symbolic = 1);
  let omegas = Array.init 9 (fun i -> 10.0 ** (8.0 +. float_of_int i /. 4.0)) in
  let ref_ = Freq.sweep sys omegas in
  let stream = Freq.compare_sweep red.Tbr_passive.rom omegas ~ref_ in
  Alcotest.(check bool)
    "RLCk ROM tracks the full model" true
    (Freq.stream_max_rel_error stream <= 1e-8)

let wrong_inductors_rejected () =
  let nl = substrate_of_seed 1 in
  let sys = Dss.of_netlist nl in
  Alcotest.check_raises "non-J-symmetric split rejected"
    (Invalid_argument
       "Tbr_passive: system is not J-symmetric (check ~inductors and the \
        E/A structure)")
    (fun () -> ignore (Tbr_passive.reduce ~order:6 ~inductors:5 sys))

let exact_unstamp () =
  (* with every state a port (B = I) the congruence is the identity, so
     synthesis must reproduce E and A exactly *)
  let e = Mat.init 3 3 (fun i j -> if i = j then 2.0 else -0.25) in
  let a =
    Mat.init 3 3 (fun i j -> if i = j then -3.0 else 0.5 +. (0.125 *. float_of_int (i + j)))
  in
  let b = Mat.identity 3 in
  let ir = Synth.realize ~e ~a ~b ~c:b () in
  let re_sys = Dss.of_netlist (Spice_ir.to_netlist ir) in
  Alcotest.(check bool)
    "E reproduced" true
    (Mat.max_abs (Mat.sub (Dss.e_dense re_sys) e) <= 1e-12 *. Mat.max_abs e);
  Alcotest.(check bool)
    "A reproduced" true
    (Mat.max_abs (Mat.sub (Dss.a_dense re_sys) a) <= 1e-12 *. Mat.max_abs a)

let full_model_realized () =
  (* realizing an UNREDUCED dense mesh model reproduces the response
     (states are rotated, the transfer function is invariant) *)
  let nl = mesh_of_seed 5 in
  let sys = Dss.of_netlist nl in
  let ir =
    Synth.realize ~e:(Dss.e_dense sys) ~a:(Dss.a_dense sys)
      ~b:(Dss.b_matrix sys) ~c:(Dss.c_matrix sys) ()
  in
  let re_sys = Dss.of_netlist (Spice.netlist (Spice.parse_string (Spice_ir.render ir))) in
  let omegas = omegas_of nl in
  let ref_ = Freq.sweep sys omegas in
  let stream = Freq.compare_sweep re_sys omegas ~ref_ in
  Alcotest.(check bool)
    "response reproduced" true
    (Freq.stream_max_rel_error stream <= 1e-9)

let unrealizable_rejected () =
  (* an asymmetric A must be refused, not silently mangled *)
  let e = Mat.identity 3 in
  let a = Mat.init 3 3 (fun i j -> if i = j then -1.0 else if i < j then 0.5 else 0.0) in
  let b = Mat.init 3 1 (fun i _ -> if i = 0 then 1.0 else 0.0) in
  let c = Mat.transpose b in
  match Synth.realize ~e ~a ~b ~c () with
  | _ -> Alcotest.fail "asymmetric A accepted"
  | exception Synth.Unrealizable _ -> ()

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pmtbr_roundtrip"
    [
      qsuite "render"
        [ prop_render_fixpoint; prop_parse_channel_equals_string ];
      qsuite "roundtrip"
        [
          prop_roundtrip_matches_rom;
          prop_synthesis_render_stable;
          prop_positive_real;
        ];
      ( "passive-vs-baseline",
        [
          Alcotest.test_case "hsv and response agree" `Slow hsv_agree;
          Alcotest.test_case "col_solves halved" `Quick col_solves_halved;
          Alcotest.test_case "RLCk J-symmetric path" `Quick rlck_j_symmetric;
          Alcotest.test_case "wrong inductors rejected" `Quick wrong_inductors_rejected;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "exact unstamp" `Quick exact_unstamp;
          Alcotest.test_case "full model realized" `Quick full_model_realized;
          Alcotest.test_case "unrealizable rejected" `Quick unrealizable_rejected;
        ] );
    ]
