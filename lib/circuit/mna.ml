(* Modified nodal analysis: stamp a netlist into descriptor state-space form

     E dx/dt = A x + B u,   y = C x

   with x = [v_1 .. v_N; i_L1 .. i_LM] (node voltages, inductor currents),
   u the port injection currents and y the port node voltages.

     E = [ Ccap  0 ]      A = [ -G   -M  ]     B = [ Bu ]    C = Bu^T
         [ 0     L ]          [ M^T   0  ]         [ 0  ]

   For RC networks this gives the paper's symmetric case: A = A^T (= -G,
   negative semidefinite) and C = B^T. *)

open Pmtbr_la
open Pmtbr_sparse

type system = {
  e : Triplet.t; (* n x n *)
  a : Triplet.t; (* n x n *)
  b : Mat.t; (* n x p *)
  c : Mat.t; (* p x n *)
  n : int; (* state count = nodes + inductors *)
  nodes : int;
  inductors : int;
}

exception Floating of int list
exception Uncapacitated of int list
exception No_dc_path of int list

(* "3 4", or the count and the first few nodes of a long list *)
let node_list vs =
  let ids vs = String.concat " " (List.map string_of_int vs) in
  let shown = 8 in
  match List.length vs with
  | k when k <= shown -> ids vs
  | k -> Printf.sprintf "%d nodes, first %s ..." k (ids (List.filteri (fun i _ -> i < shown) vs))

let () =
  Printexc.register_printer (function
    | Floating vs -> Some ("floating nodes (no element path to ground): " ^ node_list vs)
    | Uncapacitated vs ->
        Some ("nodes with no capacitive path to ground (E is singular): " ^ node_list vs)
    | No_dc_path vs ->
        Some ("nodes with no resistive or inductive path to ground (A is singular): " ^ node_list vs)
    | _ -> None)

(* Nodes with no path to ground through the elements [through] keeps, by
   union-find over their endpoints (each root is its component's lowest
   node, so ground's is 0). *)
let unreached ~through (nl : Netlist.t) =
  let nodes = Netlist.node_count nl in
  let root = Array.init (nodes + 1) Fun.id in
  let rec find v = if root.(v) = v then v else begin root.(v) <- find root.(v); root.(v) end in
  List.iter
    (function
      | (Netlist.Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } | Inductor { n1; n2; _ }) as el
        when through el ->
          let a = find n1 and b = find n2 in
          root.(max a b) <- min a b
      | _ -> ())
    (Netlist.elements nl);
  List.filter (fun v -> find v <> 0) (List.init nodes (fun i -> i + 1))

(* E's node block is the capacitance Laplacian, singular exactly when
   some node has no capacitive path to ground. *)
let check_capacitive nl =
  match unreached ~through:(function Netlist.Capacitor _ -> true | _ -> false) nl with
  | [] -> ()
  | vs -> raise (Uncapacitated vs)

(* A is the conductance Laplacian bordered by the inductor incidence,
   singular whenever some node reaches ground through capacitors alone
   (no DC path). *)
let check_dc_path nl =
  match
    unreached ~through:(function Netlist.Resistor _ | Inductor _ -> true | _ -> false) nl
  with
  | [] -> ()
  | vs -> raise (No_dc_path vs)

let stamp (nl : Netlist.t) =
  (* a floating node's rows of sE - A are singular at every s *)
  (match unreached ~through:(fun _ -> true) nl with [] -> () | vs -> raise (Floating vs));
  let nodes = Netlist.node_count nl in
  let nind = Netlist.inductor_count nl in
  let n = nodes + nind in
  let e = Triplet.create n n in
  let a = Triplet.create n n in
  (* node index n (1-based, ground = 0) -> state index n-1 *)
  let idx nd = nd - 1 in
  let lidx l = nodes + l in
  (* conductance stamp between two nodes (either may be ground) *)
  let stamp_g n1 n2 g =
    if n1 > 0 then Triplet.add a (idx n1) (idx n1) (-.g);
    if n2 > 0 then Triplet.add a (idx n2) (idx n2) (-.g);
    if n1 > 0 && n2 > 0 then begin
      Triplet.add a (idx n1) (idx n2) g;
      Triplet.add a (idx n2) (idx n1) g
    end
  in
  let stamp_c n1 n2 cv =
    if n1 > 0 then Triplet.add e (idx n1) (idx n1) cv;
    if n2 > 0 then Triplet.add e (idx n2) (idx n2) cv;
    if n1 > 0 && n2 > 0 then begin
      Triplet.add e (idx n1) (idx n2) (-.cv);
      Triplet.add e (idx n2) (idx n1) (-.cv)
    end
  in
  (* collect self-inductances first for mutual terms *)
  let self = Array.make (max 1 nind) 0.0 in
  let lcount = ref 0 in
  List.iter
    (function
      | Netlist.Inductor { henries; _ } ->
          self.(!lcount) <- henries;
          incr lcount
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Mutual _ -> ())
    (Netlist.elements nl);
  let lcount = ref 0 in
  List.iter
    (function
      | Netlist.Resistor { n1; n2; ohms } -> stamp_g n1 n2 (1.0 /. ohms)
      | Netlist.Capacitor { n1; n2; farads } -> stamp_c n1 n2 farads
      | Netlist.Inductor { n1; n2; henries } ->
          let l = !lcount in
          incr lcount;
          Triplet.add e (lidx l) (lidx l) henries;
          (* KCL: inductor current leaves n1, enters n2 *)
          if n1 > 0 then Triplet.add a (idx n1) (lidx l) (-1.0);
          if n2 > 0 then Triplet.add a (idx n2) (lidx l) 1.0;
          (* branch equation: L di/dt = v_n1 - v_n2 *)
          if n1 > 0 then Triplet.add a (lidx l) (idx n1) 1.0;
          if n2 > 0 then Triplet.add a (lidx l) (idx n2) (-1.0)
      | Netlist.Mutual { l1; l2; coupling } ->
          let m = coupling *. sqrt (self.(l1) *. self.(l2)) in
          Triplet.add e (lidx l1) (lidx l2) m;
          Triplet.add e (lidx l2) (lidx l1) m)
    (Netlist.elements nl);
  let port_nodes = Array.of_list (Netlist.ports nl) in
  let p = Array.length port_nodes in
  let b = Mat.create n p in
  Array.iteri (fun j nd -> Mat.set b (idx nd) j 1.0) port_nodes;
  let c = Mat.transpose b in
  (* make sure both triplets cover the full n x n frame *)
  Triplet.add e (n - 1) (n - 1) 0.0;
  Triplet.add a (n - 1) (n - 1) 0.0;
  ignore (Triplet.dims e);
  { e; a; b; c; n; nodes; inductors = nind }
