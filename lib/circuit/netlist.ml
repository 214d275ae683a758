(* Circuit netlists.  Nodes are non-negative integers with 0 = ground.
   Ports are current-injection sources whose observed output is the port
   node voltage, so an MNA realisation of the netlist is the impedance-
   parameter state-space model of the parasitic network (the setting of all
   the paper's examples). *)

type element =
  | Resistor of { n1 : int; n2 : int; ohms : float }
  | Capacitor of { n1 : int; n2 : int; farads : float }
  | Inductor of { n1 : int; n2 : int; henries : float }
      (* current flows n1 -> n2 through the inductor state *)
  | Mutual of { l1 : int; l2 : int; coupling : float }
      (* coupling coefficient between the [l1]-th and [l2]-th inductors *)

type t = {
  mutable elements : element list; (* reverse order of addition *)
  mutable max_node : int;
  mutable inductor_count : int;
  mutable ports : int list; (* reverse order: port node per port *)
}

let create () = { elements = []; max_node = 0; inductor_count = 0; ports = [] }

let see_node t n =
  assert (n >= 0);
  if n > t.max_node then t.max_node <- n

(* Values must be nonzero and finite; negative branch elements are legal —
   unstamping synthesis of a reduced model routinely produces them (the
   assembled MNA matrices stay semidefinite even when individual branches
   are negative). *)
let valid_value v = Float.is_finite v && v <> 0.0

let add_r t n1 n2 ohms =
  assert (valid_value ohms);
  see_node t n1;
  see_node t n2;
  if n1 <> n2 then t.elements <- Resistor { n1; n2; ohms } :: t.elements

let add_c t n1 n2 farads =
  assert (valid_value farads);
  see_node t n1;
  see_node t n2;
  if n1 <> n2 then t.elements <- Capacitor { n1; n2; farads } :: t.elements

(* Returns the inductor index, for later mutual coupling. *)
let add_l t n1 n2 henries =
  assert (valid_value henries);
  see_node t n1;
  see_node t n2;
  let id = t.inductor_count in
  t.elements <- Inductor { n1; n2; henries } :: t.elements;
  t.inductor_count <- id + 1;
  id

let add_mutual t l1 l2 coupling =
  assert (l1 <> l2 && Float.abs coupling < 1.0);
  assert (l1 < t.inductor_count && l2 < t.inductor_count);
  t.elements <- Mutual { l1; l2; coupling } :: t.elements

(* Declares node [n] a port; returns the port index. *)
let add_port t n =
  assert (n > 0);
  see_node t n;
  let id = List.length t.ports in
  t.ports <- n :: t.ports;
  id

let elements t = List.rev t.elements
let ports t = List.rev t.ports
let node_count t = t.max_node (* internal nodes 1..max_node; 0 is ground *)
let inductor_count t = t.inductor_count
let port_count t = List.length t.ports

(* What every reduction needs before it stamps: the CLI's and the
   daemon's one refusal of a port-less or node-less netlist. *)
let check_reducible t =
  if port_count t < 1 then Error "netlist declares no .port — a reduction job needs at least one"
  else if node_count t < 1 then Error "netlist has no internal nodes"
  else Ok ()

let stats t =
  let r = ref 0 and c = ref 0 and l = ref 0 and k = ref 0 in
  List.iter
    (function
      | Resistor _ -> incr r
      | Capacitor _ -> incr c
      | Inductor _ -> incr l
      | Mutual _ -> incr k)
    t.elements;
  (!r, !c, !l, !k)
