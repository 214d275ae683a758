(* Nested-dissection partitioner over the MNA state graph.

   The netlist is stamped once and the union pattern of E and A is
   dissected by [Ordering.dissect] — the one BFS level-set separator
   routine, shared with the nested-dissection LU order — under a
   leaf-count goal ([split ~parts]) or a state budget ([split_auto
   ~max_states], under a depth cap).  Internal tree nodes carry
   separators, leaves are mutually decoupled interiors; the union of all
   separators is the global interface set, so the only nonzero blocks
   are per-part interiors, part<->interface couplings, and the interface
   block.  This module keeps the bookkeeping on top: each interior is
   re-expressed as a standalone sub-netlist (interface nodes mapped to
   ground — exactly reproduces the interior stamp, see
   [sub_netlist_of_part]) so the subdomain is content-addressed by the
   same canonical-render hash the store already uses for whole networks,
   plus the coupling entries and per-part sampling right-hand sides.

   Everything here is a pure function of the netlist and the options:
   vertex orderings break ties by global index, and no step consults
   worker counts or wall clocks — the partition underpins the
   hierarchical reducer's bitwise worker-invariance contract. *)

open Pmtbr_la
open Pmtbr_sparse
open Pmtbr_circuit

type entry = int * int * float

type part = {
  states : int array;
  sys : Pmtbr_lti.Dss.t;
  sub_netlist : Netlist.t;
  rhs : Mat.t;
  e_ig : entry array;
  a_ig : entry array;
  e_gi : entry array;
  a_gi : entry array;
}

type tree =
  | Leaf of { part : int; size : int }
  | Node of { sep : int array; left : tree; right : tree }

type t = {
  parts : part array;
  tree : tree;
  interface : int array;
  e_gg : entry array;
  a_gg : entry array;
  b : Mat.t;
  c : Mat.t;
  n : int;
  p : int;
}

let part_count t = Array.length t.parts
let interface_count t = Array.length t.interface
let part_sizes t = Array.map (fun p -> Array.length p.states) t.parts

let rec depth_of = function
  | Leaf _ -> 0
  | Node { left; right; _ } -> 1 + max (depth_of left) (depth_of right)

let tree_depth t = depth_of t.tree

(* Per-level cut summary, root first: (separators at this level, total
   separator states).  Levels with no internal node are absent. *)
let level_cuts t =
  let acc = ref [] in
  let rec walk level = function
    | Leaf _ -> ()
    | Node { sep; left; right } ->
        acc := (level, Array.length sep) :: !acc;
        walk (level + 1) left;
        walk (level + 1) right
  in
  walk 0 t.tree;
  let depth = depth_of t.tree in
  let cuts = Array.make depth (0, 0) in
  List.iter
    (fun (l, s) ->
      let c, st = cuts.(l) in
      cuts.(l) <- (c + 1, st + s))
    !acc;
  cuts

(* Ancestor separators of each leaf (interface-local indices would need
   [t]; these are global state ids), in leaf/part order — the tree
   invariant tests and the store's per-node warm logic read this. *)
let leaf_ancestors t =
  let out = Array.make (Array.length t.parts) [] in
  let rec walk anc = function
    | Leaf { part; _ } -> out.(part) <- anc
    | Node { sep; left; right } ->
        let anc = Array.to_list sep @ anc in
        walk anc left;
        walk anc right
  in
  walk [] t.tree;
  out

(* ------------------------------------------------------------------ *)
(* Merged sparse entries                                                *)
(* ------------------------------------------------------------------ *)

(* Triplet accumulators hold unmerged duplicates; sum them (in entry
   order) and sort by (row, col) so every later per-entry loop runs in one
   fixed order. *)
let merged_entries n trip =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (i, j, v) ->
      let key = (i * n) + j in
      match Hashtbl.find_opt tbl key with
      | Some acc -> Hashtbl.replace tbl key (acc +. v)
      | None -> Hashtbl.add tbl key v)
    (Triplet.entries trip);
  let out = Hashtbl.fold (fun key v acc -> ((key / n, key mod n, v) :: acc)) tbl [] in
  let arr = Array.of_list out in
  Array.sort (fun (i1, j1, _) (i2, j2, _) -> compare (i1, j1) (i2, j2)) arr;
  arr

(* ------------------------------------------------------------------ *)
(* Sub-netlist extraction                                               *)
(* ------------------------------------------------------------------ *)

(* Re-express one part's interior as a standalone netlist: keep every
   element with at least one endpoint (for inductors: whose state) in the
   interior, map interface endpoints to ground.  Grounding is exact for
   the interior block: a two-terminal element between interior node i and
   interface node g contributes the same diagonal stamp at i as the
   grounded copy, and its cross terms are precisely the coupling entries
   carried separately.  Elements living entirely in the interface or in
   other parts touch no interior entry (cross-part entries cannot survive
   promotion) and are dropped.  Local state order is the sub-netlist's own
   MNA order — nodes ascending by global index, then inductors — so equal
   canonical sub-netlists mean equal interior matrices in equal order,
   which is what lets the store share subdomain sample columns across
   networks. *)
let sub_netlist_of_part nl ~nodes ~interior ~is_interior =
  let node_local = Hashtbl.create 64 in
  let node_states = Array.of_list (List.filter (fun g -> g < nodes) (Array.to_list interior)) in
  Array.iteri (fun idx g -> Hashtbl.replace node_local (g + 1) (idx + 1)) node_states;
  let ind_states = Array.of_list (List.filter (fun g -> g >= nodes) (Array.to_list interior)) in
  let ind_local = Hashtbl.create 16 in
  let sub = Netlist.create () in
  let map_node v =
    if v = 0 then Some 0
    else if is_interior (v - 1) then Some (Hashtbl.find node_local v)
    else None
  in
  (* interface (or other-part — impossible for kept elements) endpoint
     maps to ground *)
  let map_or_ground v = match map_node v with Some l -> l | None -> 0 in
  List.iter
    (fun el ->
      match el with
      | Netlist.Resistor { n1; n2; ohms } ->
          if map_node n1 <> None || map_node n2 <> None then
            Netlist.add_r sub (map_or_ground n1) (map_or_ground n2) ohms
      | Netlist.Capacitor { n1; n2; farads } ->
          if map_node n1 <> None || map_node n2 <> None then
            Netlist.add_c sub (map_or_ground n1) (map_or_ground n2) farads
      | Netlist.Inductor { n1; n2; henries } ->
          let global_l = Hashtbl.length ind_local in
          let state = nodes + global_l in
          if is_interior state then begin
            let local_l = Netlist.add_l sub (map_or_ground n1) (map_or_ground n2) henries in
            Hashtbl.replace ind_local global_l local_l
          end
          else Hashtbl.replace ind_local global_l (-1)
      | Netlist.Mutual { l1; l2; coupling } -> (
          match (Hashtbl.find_opt ind_local l1, Hashtbl.find_opt ind_local l2) with
          | Some a, Some b when a >= 0 && b >= 0 -> Netlist.add_mutual sub a b coupling
          | _ -> ()))
    (Netlist.elements nl);
  if Netlist.node_count sub <> Array.length node_states then
    invalid_arg "Partition.split: a subdomain node carries no element (isolated state)";
  if Netlist.inductor_count sub <> Array.length ind_states then
    invalid_arg "Partition.split: subdomain inductor states out of order";
  (* local order = sub-netlist MNA order: nodes ascending by global index,
     then inductors in element (= ascending global state) order *)
  (sub, Array.append node_states ind_states)

(* ------------------------------------------------------------------ *)
(* Split                                                                *)
(* ------------------------------------------------------------------ *)

let split_goal ~goal ~depth_cap nl =
  let m = Mna.stamp nl in
  let n = m.Mna.n in
  if n = 0 then invalid_arg "Partition.split: empty netlist";
  let ee = merged_entries n m.Mna.e in
  let ae = merged_entries n m.Mna.a in
  let iface = Array.make n false and interiors_rev = ref [] and parts = ref 0 in
  (* part ids are dense in left-subtree order *)
  let rec of_dissection = function
    | Ordering.Leaf states ->
        interiors_rev := states :: !interiors_rev;
        incr parts;
        Leaf { part = !parts - 1; size = Array.length states }
    | Ordering.Node { sep; left; right } ->
        Array.iter (fun v -> iface.(v) <- true) sep;
        let left = of_dissection left in
        Node { sep; left; right = of_dissection right }
  in
  (* the union pattern of E and A, row by row: read as CSC arrays it is the
     transpose's pattern, which symmetrises to the same graph *)
  let both = Array.append ee ae in
  let ptr = Array.make (n + 1) 0 in
  Array.iter (fun (i, _, _) -> ptr.(i + 1) <- ptr.(i + 1) + 1) both;
  for i = 0 to n - 1 do
    ptr.(i + 1) <- ptr.(i + 1) + ptr.(i)
  done;
  let cols = Array.make (Array.length both) 0 and next = Array.sub ptr 0 n in
  Array.iter (fun (i, j, _) -> cols.(next.(i)) <- j; next.(i) <- next.(i) + 1) both;
  let tree = of_dissection (Ordering.dissect ptr cols n ~goal ~depth_cap) in
  let interiors = Array.of_list (List.rev !interiors_rev) in
  let interface =
    Array.of_list (List.filter (fun v -> iface.(v)) (List.init n (fun i -> i)))
  in
  let iface_local = Array.make n (-1) in
  Array.iteri (fun idx g -> iface_local.(g) <- idx) interface;
  let nk = Array.length interiors in
  let local_of = Array.make n (-1) in
  let owner = Array.make n (-1) in
  (* sub-netlists fix each part's local state order; record it *)
  let subs =
    Array.mapi
      (fun pid interior ->
        Array.iter (fun v -> owner.(v) <- pid) interior;
        let is_interior v = not iface.(v) && owner.(v) = pid in
        let sub, states = sub_netlist_of_part nl ~nodes:m.Mna.nodes ~interior ~is_interior in
        Array.iteri (fun l g -> local_of.(g) <- l) states;
        (sub, states))
      interiors
  in
  (* scatter coupling and interface entries (interior entries are owned by
     the sub-netlist stamps) *)
  let e_gg = ref [] and a_gg = ref [] in
  let e_ig = Array.make nk [] and a_ig = Array.make nk [] in
  let e_gi = Array.make nk [] and a_gi = Array.make nk [] in
  let scatter gg ig gi (i, j, v) =
    match (iface.(i), iface.(j)) with
    | true, true -> gg := (iface_local.(i), iface_local.(j), v) :: !gg
    | false, true ->
        let p = owner.(i) in
        ig.(p) <- (local_of.(i), iface_local.(j), v) :: ig.(p)
    | true, false ->
        let p = owner.(j) in
        gi.(p) <- (iface_local.(i), local_of.(j), v) :: gi.(p)
    | false, false ->
        if owner.(i) <> owner.(j) then
          invalid_arg "Partition.split: cross-part entry survived promotion"
  in
  Array.iter (scatter e_gg e_ig e_gi) ee;
  Array.iter (scatter a_gg a_ig a_gi) ae;
  let finalize l = Array.of_list (List.rev l) in
  (* per-part sampling right-hand side: global port columns restricted to
     the interior, plus the interface coupling directions (columns of
     A_ig and E_ig on the adjacent interface states); all-zero columns
     are dropped.  A pure function of the partition. *)
  let build_rhs pid states =
    let nkk = Array.length states in
    let ports = Mat.init nkk m.Mna.b.Mat.cols (fun l j -> Mat.get m.Mna.b states.(l) j) in
    let adjacent =
      let tbl = Hashtbl.create 64 in
      List.iter (fun (_, g, _) -> Hashtbl.replace tbl g ()) a_ig.(pid);
      List.iter (fun (_, g, _) -> Hashtbl.replace tbl g ()) e_ig.(pid);
      let l = Hashtbl.fold (fun g () acc -> g :: acc) tbl [] in
      Array.of_list (List.sort compare l)
    in
    let madj = Array.length adjacent in
    let col_of = Hashtbl.create 64 in
    Array.iteri (fun idx g -> Hashtbl.replace col_of g idx) adjacent;
    let coup = Mat.create nkk (2 * madj) in
    List.iter
      (fun (l, g, v) -> Mat.update coup l (Hashtbl.find col_of g) (fun x -> x +. v))
      a_ig.(pid);
    List.iter
      (fun (l, g, v) -> Mat.update coup l (madj + Hashtbl.find col_of g) (fun x -> x +. v))
      e_ig.(pid);
    let raw = Mat.hcat ports coup in
    let keep = ref [] in
    for j = raw.Mat.cols - 1 downto 0 do
      let nonzero = ref false in
      for i = 0 to nkk - 1 do
        if Mat.get raw i j <> 0.0 then nonzero := true
      done;
      if !nonzero then keep := j :: !keep
    done;
    let keep = Array.of_list !keep in
    Mat.init nkk (Array.length keep) (fun i j -> Mat.get raw i keep.(j))
  in
  let parts =
    Array.mapi
      (fun pid (sub, states) ->
        {
          states;
          sys = Pmtbr_lti.Dss.of_mna (Mna.stamp sub);
          sub_netlist = sub;
          rhs = build_rhs pid states;
          e_ig = finalize e_ig.(pid);
          a_ig = finalize a_ig.(pid);
          e_gi = finalize e_gi.(pid);
          a_gi = finalize a_gi.(pid);
        })
      subs
  in
  {
    parts;
    tree;
    interface;
    e_gg = finalize !e_gg;
    a_gg = finalize !a_gg;
    b = m.Mna.b;
    c = m.Mna.c;
    n;
    p = m.Mna.b.Mat.cols;
  }

let default_depth_cap = 48
let default_parts = 4
let default_max_states = 20_000

let split ~parts:k nl =
  if k < 1 then invalid_arg "Partition.split: parts must be >= 1";
  split_goal ~goal:(Ordering.Leaves k) ~depth_cap:default_depth_cap nl

let split_auto ~max_states ?(depth_cap = default_depth_cap) nl =
  if max_states < 1 then invalid_arg "Partition.split_auto: max_states must be >= 1";
  if depth_cap < 0 then invalid_arg "Partition.split_auto: depth_cap must be >= 0";
  split_goal ~goal:(Ordering.Budget max_states) ~depth_cap nl
