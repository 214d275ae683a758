(* Fill-reducing column orderings computed on the symmetrised nonzero
   pattern of a square sparse matrix.  A permutation [p] means "eliminate
   original index p.(k) at step k". *)

(* Symmetrised adjacency (pattern of A + A^T, no self loops) in CSR form,
   rows ascending without repeats: built once per pattern and shared by
   RCM, the dissection and the fill count. *)
type graph = { ptr : int array; adj : int array }

let graph (colptr : int array) (rowind : int array) n =
  let nb = Array.make n [] in
  for j = 0 to n - 1 do
    for k = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(k) in
      if i <> j then begin
        nb.(i) <- j :: nb.(i);
        nb.(j) <- i :: nb.(j)
      end
    done
  done;
  let rows = Array.map (List.sort_uniq compare) nb in
  let ptr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> ptr.(i + 1) <- ptr.(i) + List.length r) rows;
  { ptr; adj = Array.of_list (List.concat (Array.to_list rows)) }

let degree g i = g.ptr.(i + 1) - g.ptr.(i)
let natural n = Array.init n (fun i -> i)

(* Reverse Cuthill-McKee: BFS from a minimum-degree start node, neighbours
   visited in increasing degree (ties by index), final order reversed.
   Reduces bandwidth, which bounds fill for strips and lines. *)
let rcm_of g n =
  let visited = Array.make n false and queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let push v =
    visited.(v) <- true;
    queue.(!tail) <- v;
    incr tail
  in
  while !tail < n do
    (* start a new component at its min-degree node *)
    let start = ref (-1) in
    for i = n - 1 downto 0 do
      if (not visited.(i)) && (!start < 0 || degree g i < degree g !start) then start := i
    done;
    push !start;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      Array.to_list (Array.sub g.adj g.ptr.(u) (degree g u))
      |> List.filter (fun v -> not visited.(v))
      |> List.stable_sort (fun a b -> compare (degree g a) (degree g b))
      |> List.iter push
    done
  done;
  Array.init n (fun k -> queue.(n - 1 - k))

let rcm colptr rowind n = rcm_of (graph colptr rowind n) n

(* ------------------------------------------------------------------ *)
(* Nested dissection by BFS level-set separators                        *)
(* ------------------------------------------------------------------ *)

type goal = Leaves of int | Budget of int
type dissection =
  | Leaf of int array
  | Node of { sep : int array; left : dissection; right : dissection }

(* Recursive dissection of [states] (ascending).  Each step removes one
   whole BFS level as a vertex separator: levels are only adjacent to
   their neighbours, so the sides below and above it share no entry.  The
   BFS starts from a pseudo-peripheral vertex (the lowest index on the
   deepest level of a first BFS from [states.(0)]) and restarts at the
   smallest unvisited index when a component is exhausted, so disconnected
   pieces land on successive levels.  The level minimises |sep|/n plus
   half the distance of the below-side fraction from the target split
   (k1/k under a leaf-count goal, 1/2 under a budget), ties to the lowest
   level.  A subset stays whole when the goal is met, it has fewer than
   three levels, or [depth_cap] is reached. *)
let dissect_graph g ~goal ~depth_cap states =
  let n_all = Array.length g.ptr - 1 in
  let level = Array.make n_all (-1) and member = Array.make n_all (-1) in
  let queue = Array.make n_all 0 in
  (* level numbers over the subset tagged [id]; returns the deepest level *)
  let bfs id states source =
    Array.iter (fun v -> level.(v) <- -1) states;
    let head = ref 0 and tail = ref 0 and deepest = ref 0 in
    let visit v l =
      level.(v) <- l;
      queue.(!tail) <- v;
      incr tail;
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        deepest := max !deepest level.(v);
        for k = g.ptr.(v) to g.ptr.(v + 1) - 1 do
          let w = g.adj.(k) in
          if member.(w) = id && level.(w) < 0 then begin
            level.(w) <- level.(v) + 1;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    in
    visit source 0;
    Array.iter (fun v -> if level.(v) < 0 then visit v (!deepest + 1)) states;
    !deepest
  in
  let rec go id states ~goal ~depth =
    let n = Array.length states in
    if n <= 1 || depth >= depth_cap || (match goal with Leaves k -> k <= 1 | Budget b -> n <= b)
    then Leaf states
    else begin
      Array.iter (fun v -> member.(v) <- id) states;
      ignore (bfs id states states.(0));
      let src = ref states.(0) in
      Array.iter (fun v -> if level.(v) > level.(!src) then src := v) states;
      let max_level = bfs id states !src in
      let sizes = Array.make (max_level + 1) 0 in
      Array.iter (fun v -> sizes.(level.(v)) <- sizes.(level.(v)) + 1) states;
      let target =
        match goal with Leaves k -> float_of_int (k / 2) /. float_of_int k | Budget _ -> 0.5
      in
      let best = ref None and below = ref sizes.(0) in
      for l = 1 to max_level - 1 do
        let b = !below and a = n - !below - sizes.(l) in
        if b > 0 && a > 0 then begin
          let frac = float_of_int b /. float_of_int (b + a) in
          let score =
            (float_of_int sizes.(l) /. float_of_int n) +. (0.5 *. Float.abs (frac -. target))
          in
          match !best with Some (s, _) when s <= score -> () | _ -> best := Some (score, l)
        end;
        below := !below + sizes.(l)
      done;
      match !best with
      | None -> Leaf states
      | Some (_, l) ->
          (* read the levels before the recursion overwrites them *)
          let side keep = Array.of_list (List.filter (fun v -> keep level.(v)) (Array.to_list states)) in
          let sep = side (fun x -> x = l) and s1 = side (fun x -> x < l) and s2 = side (fun x -> x > l) in
          let g1, g2 =
            match goal with
            | Leaves k -> (Leaves (k / 2), Leaves (k - (k / 2)))
            | Budget b -> (Budget b, Budget b)
          in
          let left = go (2 * id + 1) s1 ~goal:g1 ~depth:(depth + 1) in
          Node { sep; left; right = go (2 * id + 2) s2 ~goal:g2 ~depth:(depth + 1) }
    end
  in
  go 0 states ~goal ~depth:0

let dissect colptr rowind n ~goal ~depth_cap =
  dissect_graph (graph colptr rowind n) ~goal ~depth_cap (natural n)

(* Post-order of the dissection under a 32-vertex leaf budget: left
   subtree, right subtree, then the separator, so every separator is
   eliminated after both of its sides. *)
let nested_dissection_of g n =
  let order = ref [] in
  let emit = Array.iter (fun v -> order := v :: !order) in
  let rec post = function
    | Leaf states -> emit states
    | Node { sep; left; right } -> post left; post right; emit sep
  in
  post (dissect_graph g ~goal:(Budget 32) ~depth_cap:48 (natural n));
  Array.of_list (List.rev !order)

let nested_dissection colptr rowind n = nested_dissection_of (graph colptr rowind n) n

(* ------------------------------------------------------------------ *)
(* Symbolic fill and the ordering rule                                  *)
(* ------------------------------------------------------------------ *)

(* nnz of the Cholesky factor L (diagonal included) of the symmetrised
   pattern eliminated in order [p]: the elimination tree by Liu's
   ancestor walk, then each row's subtree of it walked once, O(nnz(L)). *)
let fill_of g p =
  let n = Array.length p in
  let pinv = Array.make n 0 in
  Array.iteri (fun k v -> pinv.(v) <- k) p;
  let each_lower k f =
    for e = g.ptr.(p.(k)) to g.ptr.(p.(k) + 1) - 1 do
      if pinv.(g.adj.(e)) < k then f (ref pinv.(g.adj.(e)))
    done
  in
  let parent = Array.make n (-1) and ancestor = Array.make n (-1) in
  for k = 0 to n - 1 do
    each_lower k (fun i ->
        while !i <> -1 && !i < k do
          let next = ancestor.(!i) in
          ancestor.(!i) <- k;
          if next = -1 then parent.(!i) <- k;
          i := next
        done)
  done;
  let mark = Array.make n (-1) and count = ref n in
  for k = 0 to n - 1 do
    mark.(k) <- k;
    each_lower k (fun i ->
        while mark.(!i) <> k do
          incr count;
          mark.(!i) <- k;
          i := parent.(!i)
        done)
  done;
  !count

let fill colptr rowind n p = fill_of (graph colptr rowind n) p

type pick = { nested : bool; rcm_fill : int; nd_fill : int }

let lower_fill colptr rowind n =
  let g = graph colptr rowind n in
  let r = rcm_of g n and d = nested_dissection_of g n in
  let rcm_fill = fill_of g r and nd_fill = fill_of g d in
  let nested = nd_fill < rcm_fill in
  ((if nested then d else r), { nested; rcm_fill; nd_fill })

type scheme = Natural | Rcm | Nested_dissection | Lower_fill | Given of int array

let compute scheme colptr rowind n =
  match scheme with
  | Natural -> natural n
  | Rcm -> rcm colptr rowind n
  | Nested_dissection -> nested_dissection colptr rowind n
  | Lower_fill -> fst (lower_fill colptr rowind n)
  | Given p ->
      if Array.length p <> n then invalid_arg "Ordering.compute: Given permutation has wrong length";
      Array.copy p
