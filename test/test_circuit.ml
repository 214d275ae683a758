(* Tests for netlists, MNA stamping, and the circuit generators. *)

open Pmtbr_la
open Pmtbr_sparse
open Pmtbr_circuit

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

let approx ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Netlist / MNA basics                                                *)
(* ------------------------------------------------------------------ *)

let test_single_rc () =
  (* one node: R to ground, C to ground, port -> A = -1/R, E = C, B = 1 *)
  let nl = Netlist.create () in
  Netlist.add_r nl 1 0 2.0;
  Netlist.add_c nl 1 0 3.0;
  ignore (Netlist.add_port nl 1);
  let m = Mna.stamp nl in
  Alcotest.(check int) "n" 1 m.Mna.n;
  let e = Triplet.to_dense m.Mna.e and a = Triplet.to_dense m.Mna.a in
  approx "E" 3.0 (Mat.get e 0 0);
  approx "A" (-0.5) (Mat.get a 0 0);
  approx "B" 1.0 (Mat.get m.Mna.b 0 0);
  approx "C" 1.0 (Mat.get m.Mna.c 0 0)

let test_resistor_between_nodes () =
  let nl = Netlist.create () in
  Netlist.add_r nl 1 2 4.0;
  Netlist.add_r nl 2 0 4.0;
  Netlist.add_c nl 1 0 1.0;
  Netlist.add_c nl 2 0 1.0;
  ignore (Netlist.add_port nl 1);
  let m = Mna.stamp nl in
  let a = Triplet.to_dense m.Mna.a in
  approx "A11" (-0.25) (Mat.get a 0 0);
  approx "A12" 0.25 (Mat.get a 0 1);
  approx "A21" 0.25 (Mat.get a 1 0);
  approx "A22" (-0.5) (Mat.get a 1 1)

let test_rc_symmetry () =
  (* any RC netlist: A = A^T <= 0, E diagonal, C = B^T *)
  let nl = Rc_mesh.generate ~rows:4 ~cols:5 ~ports:3 () in
  let m = Mna.stamp nl in
  let a = Triplet.to_dense m.Mna.a in
  if not (Mat.is_symmetric a) then Alcotest.fail "A not symmetric";
  let eigs = Eig_sym.eigenvalues a in
  Array.iter (fun l -> if l > 1e-9 then Alcotest.failf "A has positive eigenvalue %g" l) eigs;
  check_small "C - B^T" (Mat.frobenius (Mat.sub m.Mna.c (Mat.transpose m.Mna.b)))

let test_inductor_stamp () =
  (* port - L - ground with R: check state count and pencil structure *)
  let nl = Netlist.create () in
  Netlist.add_r nl 1 0 1.0;
  Netlist.add_c nl 1 0 1.0;
  ignore (Netlist.add_l nl 1 0 5.0);
  ignore (Netlist.add_port nl 1);
  let m = Mna.stamp nl in
  Alcotest.(check int) "states = node + inductor" 2 m.Mna.n;
  let e = Triplet.to_dense m.Mna.e and a = Triplet.to_dense m.Mna.a in
  approx "L in E" 5.0 (Mat.get e 1 1);
  approx "KCL coupling" (-1.0) (Mat.get a 0 1);
  approx "branch eq" 1.0 (Mat.get a 1 0)

let test_mutual_stamp () =
  let nl = Netlist.create () in
  Netlist.add_c nl 1 0 1.0;
  Netlist.add_c nl 2 0 1.0;
  Netlist.add_r nl 1 0 1.0;
  Netlist.add_r nl 2 0 1.0;
  let l1 = Netlist.add_l nl 1 0 4.0 in
  let l2 = Netlist.add_l nl 2 0 9.0 in
  Netlist.add_mutual nl l1 l2 0.5;
  ignore (Netlist.add_port nl 1);
  let m = Mna.stamp nl in
  let e = Triplet.to_dense m.Mna.e in
  (* M = k sqrt(L1 L2) = 0.5 * 6 = 3 *)
  approx "mutual term" 3.0 (Mat.get e 2 3);
  approx "mutual symmetric" 3.0 (Mat.get e 3 2);
  (* inductance matrix must remain positive definite for |k| < 1 *)
  let lmat = Mat.sub_matrix e ~row:2 ~col:2 ~rows:2 ~cols:2 in
  let eigs = Eig_sym.eigenvalues lmat in
  if eigs.(1) <= 0.0 then Alcotest.fail "L matrix not PD"

(* a component with no element path to ground is refused at stamp time,
   naming its nodes: a resistive/capacitive island, a transformer
   secondary coupled only magnetically, and a node only a port names *)
let test_floating_nodes () =
  let island =
    "R1 1 0 1k\nC1 1 0 1p\nR2 1 2 1k\nC2 2 0 1p\nR3 3 4 1k\nC3 3 4 1p\n.port 1\n"
  in
  let floating nl =
    match Mna.stamp nl with _ -> [] | exception Mna.Floating vs -> vs
  in
  let nl = Spice.netlist (Spice.parse_string island) in
  Alcotest.(check (list int)) "island" [ 3; 4 ] (floating nl);
  Alcotest.(check string) "message names the nodes"
    "floating nodes (no element path to ground): 3 4" (Printexc.to_string (Mna.Floating [ 3; 4 ]));
  let nl = Netlist.create () in
  Netlist.add_r nl 1 0 1.0;
  let l1 = Netlist.add_l nl 1 0 1e-9 in
  let l2 = Netlist.add_l nl 2 3 1e-9 in
  Netlist.add_mutual nl l1 l2 0.5;
  ignore (Netlist.add_port nl 1);
  Alcotest.(check (list int)) "magnetic-only secondary" [ 2; 3 ] (floating nl);
  let nl = Netlist.create () in
  Netlist.add_r nl 1 0 1.0;
  ignore (Netlist.add_port nl 2);
  Alcotest.(check (list int)) "port on a bare node" [ 2 ] (floating nl);
  Alcotest.(check (list int)) "grounded mesh" [] (floating (Rc_mesh.generate ~rows:4 ~cols:4 ()))

(* a node with no capacitive path to ground makes E singular: refused by
   name before the exact-TBR methods invert E, long lists shortened to a
   count and the first eight nodes *)
let test_capacitor_free_nodes () =
  let uncapacitated nl =
    match Mna.check_capacitive nl with () -> [] | exception Mna.Uncapacitated vs -> vs
  in
  let parse text = Spice.netlist (Spice.parse_string text) in
  let nl = parse "R1 1 0 1k\nC1 1 0 1p\nR2 1 2 1k\nR3 2 3 1k\nC3 3 0 1p\n.port 1\n" in
  Alcotest.(check (list int)) "resistor-only node" [ 2 ] (uncapacitated nl);
  Alcotest.(check string) "message names the node"
    "nodes with no capacitive path to ground (E is singular): 2"
    (Printexc.to_string (Mna.Uncapacitated [ 2 ]));
  let nl = parse "R1 1 0 1k\nC1 1 0 1p\nR2 1 2 1k\nC2 2 0 1p\nR3 3 4 1k\nC3 3 4 1p\n.port 1\n" in
  Alcotest.(check (list int)) "capacitor island" [ 3; 4 ] (uncapacitated nl);
  Alcotest.(check (list int)) "grounded mesh" [] (uncapacitated (Rc_mesh.generate ~rows:4 ~cols:4 ()));
  let spiral = uncapacitated (Spiral.generate ~segments:16 ()) in
  Alcotest.(check int) "spiral nodes without a capacitor path" 65 (List.length spiral);
  Alcotest.(check string) "long lists give the count and the first eight"
    "nodes with no capacitive path to ground (E is singular): 65 nodes, first 1 4 5 6 7 10 11 12 ..."
    (Printexc.to_string (Mna.Uncapacitated spiral));
  Alcotest.(check string) "floating lists shorten alike"
    "floating nodes (no element path to ground): 9 nodes, first 1 2 3 4 5 6 7 8 ..."
    (Printexc.to_string (Mna.Floating (List.init 9 succ)))

(* a node that reaches ground through capacitors alone has no DC path:
   A is singular and the exact-TBR methods refuse it by name *)
let test_no_dc_path_nodes () =
  let no_dc nl = match Mna.check_dc_path nl with () -> [] | exception Mna.No_dc_path vs -> vs in
  let parse text = Spice.netlist (Spice.parse_string text) in
  Alcotest.(check (list int)) "capacitively grounded pair" [ 1; 2 ]
    (no_dc (parse "C1 1 0 1p\nR1 1 2 1k\nC2 2 0 1p\n.port 1\n"));
  Alcotest.(check string) "message names the nodes"
    "nodes with no resistive or inductive path to ground (A is singular): 1 2"
    (Printexc.to_string (Mna.No_dc_path [ 1; 2 ]));
  Alcotest.(check (list int)) "an inductor is a DC path" []
    (no_dc (parse "C1 1 0 1p\nL1 1 0 1n\nR1 1 2 1k\nC2 2 0 1p\n.port 1\n"));
  Alcotest.(check (list int)) "grounded mesh" [] (no_dc (Rc_mesh.generate ~rows:4 ~cols:4 ()));
  Alcotest.(check (list int)) "spiral" [] (no_dc (Spiral.generate ~segments:16 ()))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let stable_and_well_formed name nl =
  let m = Mna.stamp nl in
  Alcotest.(check bool) (name ^ " has states") true (m.Mna.n > 0);
  Alcotest.(check bool) (name ^ " has ports") true (Netlist.port_count nl > 0);
  (* E must be symmetric PSD (caps and inductances physical) *)
  let e = Triplet.to_dense m.Mna.e in
  if not (Mat.is_symmetric e) then Alcotest.failf "%s: E not symmetric" name;
  m

let test_rc_line_dc_resistance () =
  let nl = Rc_line.generate ~sections:10 ~r:7.0 ~c:1e-12 ~r_term:30.0 () in
  let m = stable_and_well_formed "rc_line" nl in
  (* DC: v = G^{-1} B u, y = C v; input resistance = y for unit current *)
  let g = Mat.scale (-1.0) (Triplet.to_dense m.Mna.a) in
  let v = Mat.solve g m.Mna.b in
  approx ~tol:1e-6 "dc resistance"
    (Rc_line.dc_resistance ~sections:10 ~r:7.0 ~r_term:30.0 ())
    (Mat.get (Mat.mul m.Mna.c v) 0 0)

let test_rc_mesh_structure () =
  let rows = 5 and cols = 6 in
  let nl = Rc_mesh.generate ~rows ~cols ~ports:4 () in
  let m = stable_and_well_formed "rc_mesh" nl in
  Alcotest.(check int) "states = grid nodes" (rows * cols) m.Mna.n;
  Alcotest.(check int) "ports" 4 (Netlist.port_count nl);
  let r, c, l, k = Netlist.stats nl in
  Alcotest.(check int) "resistors: grid edges + leaks"
    ((rows * (cols - 1)) + (cols * (rows - 1)) + (rows * cols))
    r;
  Alcotest.(check int) "caps" (rows * cols) c;
  Alcotest.(check int) "no inductors" 0 l;
  Alcotest.(check int) "no mutuals" 0 k

let test_rc_mesh_port_growth_nested () =
  (* growing the port count preserves earlier port nodes: needed for the
     Fig. 3 sweep to be a proper nesting *)
  let ports_of n =
    Netlist.ports (Rc_mesh.generate ~rows:8 ~cols:8 ~ports:n ())
  in
  let p4 = ports_of 4 and p8 = ports_of 8 in
  List.iteri
    (fun i nd -> Alcotest.(check int) (Printf.sprintf "port %d stable" i) nd (List.nth p8 i))
    p4

let test_clock_tree_size () =
  let nl = Clock_tree.generate ~levels:5 () in
  let m = stable_and_well_formed "clock_tree" nl in
  (* binary tree: 1 + 2 + 4 + ... + 2^levels = 2^(levels+1) - 1 nodes *)
  Alcotest.(check int) "node count" ((1 lsl 6) - 1) m.Mna.n

let test_spiral_has_inductors_and_coupling () =
  let nl = Spiral.generate ~segments:8 () in
  let _ = stable_and_well_formed "spiral" nl in
  let _, _, l, k = Netlist.stats nl in
  Alcotest.(check bool) "inductors" true (l >= 16);
  (* series + skin *)
  Alcotest.(check bool) "mutual couplings" true (k > 0)

let test_peec_structure () =
  let nl = Peec.generate ~cells:10 () in
  let m = stable_and_well_formed "peec" nl in
  Alcotest.(check bool) "states > cells" true (m.Mna.n > 10)

let test_connector_structure () =
  let nl = Connector.generate ~pins:6 ~sections:3 () in
  let m = stable_and_well_formed "connector" nl in
  Alcotest.(check int) "one port" 1 (Netlist.port_count nl);
  Alcotest.(check bool) "order reasonable" true (m.Mna.n > 40)

let test_substrate_structure () =
  let nl = Substrate.generate ~ports:20 ~internal:10 ~seed:1 () in
  let m = stable_and_well_formed "substrate" nl in
  Alcotest.(check int) "ports" 20 (Netlist.port_count nl);
  Alcotest.(check int) "nodes" 30 m.Mna.n;
  (* connected to ground: -A (the conductance matrix) must be PD *)
  let g = Mat.scale (-1.0) (Triplet.to_dense m.Mna.a) in
  (try ignore (Chol.factor g) with Chol.Not_positive_definite _ -> Alcotest.fail "G not PD")

let test_substrate_deterministic () =
  let n1 = Substrate.generate ~ports:10 ~seed:5 () in
  let n2 = Substrate.generate ~ports:10 ~seed:5 () in
  let m1 = Mna.stamp n1 and m2 = Mna.stamp n2 in
  check_small "same A" (Mat.frobenius (Mat.sub (Triplet.to_dense m1.Mna.a) (Triplet.to_dense m2.Mna.a)))

(* ------------------------------------------------------------------ *)
(* Streaming SPICE reader                                              *)
(* ------------------------------------------------------------------ *)

let stats_of text = Netlist.stats (Spice.netlist (Spice.parse_string text))

let test_spice_continuations_and_comments () =
  (* '+' continuation lines, '*' / ';' / '$' comments (inline and full
     line), and blank lines — all exercised on one netlist *)
  let text =
    "* full-line comment\n\
     R1 1 0\n\
     + 1k ; inline comment after a continuation\n\
     \n\
     C1 1\n\
     + 0\n\
     + 1p $ another inline comment\n\
     $ full-line dollar comment\n\
     .port 1\n\
     .end\n\
     R_ignored_after_end 2 0 1k\n"
  in
  let r, c, l, k = stats_of text in
  Alcotest.(check int) "resistors" 1 r;
  Alcotest.(check int) "capacitors" 1 c;
  Alcotest.(check int) "inductors" 0 l;
  Alcotest.(check int) "mutuals" 0 k

let test_spice_case_insensitive_directives () =
  let text = "r1 n1 GND 1K\nC1 N1 gnd 1P\n.PORT n1\n.End\n" in
  let nl = Spice.netlist (Spice.parse_string text) in
  let r, c, _, _ = Netlist.stats nl in
  Alcotest.(check int) "resistors" 1 r;
  Alcotest.(check int) "capacitors" 1 c;
  Alcotest.(check int) "one port" 1 (Netlist.port_count nl);
  (* n1 and N1 are the same node: one state *)
  Alcotest.(check int) "one node" 1 (Mna.stamp nl).Mna.n

let test_spice_subckt_flattening () =
  (* a two-section ladder instantiated twice, chained through x/y; the
     internal node of each instance is scoped, so 5 distinct nodes *)
  let text =
    ".subckt sec in out\n\
     Rs in mid 1k\n\
     Cs mid 0 1p\n\
     Ro mid out 2k\n\
     .ends\n\
     X1 a b sec\n\
     X2 b c sec\n\
     .port a\n\
     .end\n"
  in
  let parsed = Spice.parse_string text in
  let nl = Spice.netlist parsed in
  let r, c, _, _ = Netlist.stats nl in
  Alcotest.(check int) "resistors" 4 r;
  Alcotest.(check int) "capacitors" 2 c;
  Alcotest.(check int) "nodes" 5 (Mna.stamp nl).Mna.n;
  (* instance-internal nodes carry their scoped names *)
  let names = List.init 5 (fun i -> Spice.node_name parsed (i + 1)) in
  Alcotest.(check bool) "scoped internal node" true (List.mem "x1.mid" names);
  Alcotest.(check bool) "scoped internal node 2" true (List.mem "x2.mid" names)

let test_spice_model_cards () =
  let text =
    ".model rload res 50\n\
     .model cpar c 2p\n\
     R1 1 0 rload\n\
     C1 1 0 cpar\n\
     .port 1\n\
     .end\n"
  in
  let m = Mna.stamp (Spice.netlist (Spice.parse_string text)) in
  approx "A from model R" (-1.0 /. 50.0) (Mat.get (Triplet.to_dense m.Mna.a) 0 0);
  approx ~tol:1e-24 "E from model C" 2e-12 (Mat.get (Triplet.to_dense m.Mna.e) 0 0)

let test_spice_negative_values () =
  (* synthesized ROM netlists carry negative branch elements *)
  let text = "R1 1 2 -3.5\nR2 1 0 2.0\nC1 1 0 1p\nC2 1 2 -4e-13\n.port 1\n.end\n" in
  let r, c, _, _ = stats_of text in
  Alcotest.(check int) "resistors" 2 r;
  Alcotest.(check int) "capacitors" 2 c

let test_spice_line_numbered_errors () =
  let expect_line text want_line =
    match Spice.parse_string text with
    | exception Spice.Parse_error (line, _) ->
        Alcotest.(check int) (Printf.sprintf "error line for %S" text) want_line line
    | _ -> Alcotest.failf "%S must fail to parse" text
  in
  expect_line "R1 1 0 1k\nC1 1 0 0\n" 2 (* zero value *);
  (* a continued card is reported at the line where the card begins *)
  expect_line "R1 1 0 1k\n\nR2 1 0\n+ banana\n" 3;
  expect_line "R1 1 0 1k\n.frobnicate 1\n" 2 (* unknown directive *);
  expect_line "R1 1 0 1k\nK1 L1 L2 0.5\n" 2 (* unknown inductor *);
  expect_line "X1 a b nosuch\n" 1 (* unknown subcircuit *);
  expect_line ".subckt s in out\nR1 in out 1\n" 1 (* unclosed definition *);
  expect_line "R1 1 0 1k\n.ends\n" 2 (* .ends without .subckt *);
  expect_line ".port 0\n" 1 (* port on ground *)

(* property: every generator yields a stamped system whose A is stable
   (eigenvalues of the symmetric part nonpositive) *)
let prop_generators_stable =
  QCheck2.Test.make ~name:"generated RC systems have negative semidefinite A" ~count:10
    QCheck2.Gen.(pair (int_range 2 6) (int_range 2 6))
    (fun (rows, cols) ->
      let m = Mna.stamp (Rc_mesh.generate ~rows ~cols ~ports:1 ()) in
      let eigs = Eig_sym.eigenvalues (Triplet.to_dense m.Mna.a) in
      Array.for_all (fun l -> l <= 1e-9) eigs)

let props = [ QCheck_alcotest.to_alcotest prop_generators_stable ]

let () =
  Alcotest.run "pmtbr_circuit"
    [
      ( "mna",
        [
          Alcotest.test_case "single rc" `Quick test_single_rc;
          Alcotest.test_case "resistor between nodes" `Quick test_resistor_between_nodes;
          Alcotest.test_case "rc symmetry" `Quick test_rc_symmetry;
          Alcotest.test_case "inductor stamp" `Quick test_inductor_stamp;
          Alcotest.test_case "mutual stamp" `Quick test_mutual_stamp;
          Alcotest.test_case "floating nodes" `Quick test_floating_nodes;
          Alcotest.test_case "capacitor-free nodes" `Quick test_capacitor_free_nodes;
          Alcotest.test_case "no DC path nodes" `Quick test_no_dc_path_nodes;
        ] );
      ( "generators",
        [
          Alcotest.test_case "rc line dc resistance" `Quick test_rc_line_dc_resistance;
          Alcotest.test_case "rc mesh structure" `Quick test_rc_mesh_structure;
          Alcotest.test_case "rc mesh nested ports" `Quick test_rc_mesh_port_growth_nested;
          Alcotest.test_case "clock tree size" `Quick test_clock_tree_size;
          Alcotest.test_case "spiral" `Quick test_spiral_has_inductors_and_coupling;
          Alcotest.test_case "peec" `Quick test_peec_structure;
          Alcotest.test_case "connector" `Quick test_connector_structure;
          Alcotest.test_case "substrate" `Quick test_substrate_structure;
          Alcotest.test_case "substrate deterministic" `Quick test_substrate_deterministic;
        ] );
      ( "spice-reader",
        [
          Alcotest.test_case "continuations and comments" `Quick
            test_spice_continuations_and_comments;
          Alcotest.test_case "case-insensitive directives" `Quick
            test_spice_case_insensitive_directives;
          Alcotest.test_case "subckt flattening" `Quick test_spice_subckt_flattening;
          Alcotest.test_case "model cards" `Quick test_spice_model_cards;
          Alcotest.test_case "negative values" `Quick test_spice_negative_values;
          Alcotest.test_case "line-numbered errors" `Quick test_spice_line_numbered_errors;
        ] );
      ("properties", props);
    ]
