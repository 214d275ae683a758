(* Left-looking sparse LU with partial pivoting (Gilbert-Peierls) on real
   matrices.  For each column, the nonzero pattern of the triangular solve
   L x = a_k is found by depth-first search on the graph of the
   already-computed columns of L ([reach], shared with the complex kernel
   of Shifted), giving a topological order in which the numeric
   elimination is performed in time proportional to flops.

   L and U are stored CSparse-style while they grow: one column-pointer
   array each plus row-index and value arenas doubled on demand, L's rows
   in original coordinates until the end. *)

exception Singular of int

type factor = {
  n : int;
  (* L in pivot coordinates, unit diagonal implicit *)
  l_colptr : int array;
  l_rowind : int array;
  l_values : float array;
  (* strictly-upper part of U, plus the diagonal separately *)
  u_colptr : int array;
  u_rowind : int array;
  u_values : float array;
  u_diag : float array;
  pinv : int array; (* original row -> pivot position *)
  q : int array; (* pivot column k came from original column q.(k) *)
}

(* One left-looking step's symbolic half: DFS from every row of
   A(:, jcol) over the column graph of L (node i has children = the row
   indices of L's column pinv.(i), when i is already pivotal), pushing
   nodes onto [topo] in reverse topological order. *)
let reach ~colptr ~rowind jcol ~(l_colptr : int array) ~(l_rowind : int array)
    ~(pinv : int array) ~(mark : int array) ~stamp ~(topo : int array) ~(stack : int array)
    ~(child_pos : int array) =
  let tl = ref 0 in
  for p = colptr.(jcol) to colptr.(jcol + 1) - 1 do
    let start = rowind.(p) in
    if mark.(start) <> stamp then begin
      let sp = ref 0 in
      stack.(0) <- start;
      mark.(start) <- stamp;
      if pinv.(start) >= 0 then child_pos.(start) <- l_colptr.(pinv.(start));
      while !sp >= 0 do
        let u = stack.(!sp) in
        let piv = pinv.(u) in
        let found = ref (-1) in
        if piv >= 0 then begin
          let c = ref child_pos.(u) and stop = l_colptr.(piv + 1) in
          while !found < 0 && !c < stop do
            let r = l_rowind.(!c) in
            incr c;
            if mark.(r) <> stamp then found := r
          done;
          child_pos.(u) <- !c
        end;
        if !found >= 0 then begin
          let r = !found in
          incr sp;
          stack.(!sp) <- r;
          mark.(r) <- stamp;
          if pinv.(r) >= 0 then child_pos.(r) <- l_colptr.(pinv.(r))
        end
        else begin
          (* all children visited: emit u *)
          topo.(!tl) <- u;
          incr tl;
          decr sp
        end
      done
    end
  done;
  !tl

(* In-place heapsort of a.(lo .. hi - 1).  U columns are stored in
   ascending pivot order: replayed in storage order (Shifted's per-shift
   replay), the updates then form a valid left-looking schedule. *)
let rec sift (a : int array) lo root size =
  let child = (2 * root) + 1 in
  if child < size then begin
    let child =
      if child + 1 < size && a.(lo + child + 1) > a.(lo + child) then child + 1 else child
    in
    if a.(lo + child) > a.(lo + root) then begin
      let t = a.(lo + root) in
      a.(lo + root) <- a.(lo + child);
      a.(lo + child) <- t;
      sift a lo child size
    end
  end

let sort_range (a : int array) lo hi =
  let size = hi - lo in
  for root = (size / 2) - 1 downto 0 do
    sift a lo root size
  done;
  for last = size - 1 downto 1 do
    let t = a.(lo) in
    a.(lo) <- a.(lo + last);
    a.(lo + last) <- t;
    sift a lo 0 last
  done

let grow_int (a : int array) need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float (a : float array) need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let factorize ?(ordering = Ordering.Natural) (a : Csc.t) =
  assert (a.Csc.rows = a.Csc.cols);
  let n = a.Csc.rows in
  let colptr = a.Csc.colptr and rowind = a.Csc.rowind and values = a.Csc.values in
  let q = Ordering.compute ordering colptr rowind n in
  let pinv = Array.make n (-1) and prow = Array.make n 0 in
  let cap = max 16 (Array.length rowind) in
  let l_colptr = Array.make (n + 1) 0 and u_colptr = Array.make (n + 1) 0 in
  let l_rowind = ref (Array.make cap 0) and l_values = ref (Array.make cap 0.0) in
  let u_rowind = ref (Array.make cap 0) and u_values = ref (Array.make cap 0.0) in
  let u_diag = Array.make n 0.0 in
  let x = Array.make n 0.0 in
  let mark = Array.make n (-1) in
  let topo = Array.make n 0 and stack = Array.make n 0 and child_pos = Array.make n 0 in
  for k = 0 to n - 1 do
    let jcol = q.(k) in
    let nz =
      reach ~colptr ~rowind jcol ~l_colptr ~l_rowind:!l_rowind ~pinv ~mark ~stamp:k ~topo ~stack
        ~child_pos
    in
    (* scatter the numeric column *)
    for t = 0 to nz - 1 do
      x.(topo.(t)) <- 0.0
    done;
    for p = colptr.(jcol) to colptr.(jcol + 1) - 1 do
      x.(rowind.(p)) <- values.(p)
    done;
    (* numeric sparse triangular solve, in topological order (topo holds
       reverse-topological, so walk backwards) *)
    let lr = !l_rowind and lv = !l_values in
    for t = nz - 1 downto 0 do
      let i = topo.(t) in
      let piv = pinv.(i) in
      if piv >= 0 then begin
        let xi = x.(i) in
        if xi <> 0.0 then
          for p = l_colptr.(piv) to l_colptr.(piv + 1) - 1 do
            let r = lr.(p) in
            x.(r) <- x.(r) -. (lv.(p) *. xi)
          done
      end
    done;
    (* partial pivoting among non-pivotal rows *)
    let pivrow = ref (-1) and pivmag = ref 0.0 in
    for t = 0 to nz - 1 do
      let i = topo.(t) in
      if pinv.(i) < 0 then begin
        let m = Float.abs x.(i) in
        if m > !pivmag then begin
          pivmag := m;
          pivrow := i
        end
      end
    done;
    if !pivrow < 0 || !pivmag = 0.0 then raise (Singular k);
    let pivot = x.(!pivrow) in
    pinv.(!pivrow) <- k;
    prow.(k) <- !pivrow;
    u_diag.(k) <- pivot;
    (* distribute entries into U (pivotal rows) and L (non-pivotal) *)
    let l0 = l_colptr.(k) and u0 = u_colptr.(k) in
    l_rowind := grow_int !l_rowind (l0 + nz);
    l_values := grow_float !l_values (l0 + nz);
    u_rowind := grow_int !u_rowind (u0 + nz);
    u_values := grow_float !u_values (u0 + nz);
    let lr = !l_rowind and lv = !l_values and ur = !u_rowind and uv = !u_values in
    let lp = ref l0 and up = ref u0 in
    for t = 0 to nz - 1 do
      let i = topo.(t) in
      let piv = pinv.(i) in
      if piv >= 0 && piv < k then begin
        ur.(!up) <- piv;
        incr up
      end
      else if i <> !pivrow then begin
        lr.(!lp) <- i;
        lv.(!lp) <- x.(i) /. pivot;
        incr lp
      end
    done;
    sort_range ur u0 !up;
    for p = u0 to !up - 1 do
      uv.(p) <- x.(prow.(ur.(p)))
    done;
    l_colptr.(k + 1) <- !lp;
    u_colptr.(k + 1) <- !up
  done;
  (* renumber L's rows into pivot coordinates *)
  let l_rowind = Array.sub !l_rowind 0 l_colptr.(n) in
  for p = 0 to Array.length l_rowind - 1 do
    l_rowind.(p) <- pinv.(l_rowind.(p))
  done;
  {
    n;
    l_colptr;
    l_rowind;
    l_values = Array.sub !l_values 0 l_colptr.(n);
    u_colptr;
    u_rowind = Array.sub !u_rowind 0 u_colptr.(n);
    u_values = Array.sub !u_values 0 u_colptr.(n);
    u_diag;
    pinv;
    q;
  }

let solve_vec f b =
  let n = f.n in
  assert (Array.length b = n);
  (* y = P b *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    y.(f.pinv.(i)) <- b.(i)
  done;
  (* forward: L y' = y, column-oriented, unit diagonal *)
  for k = 0 to n - 1 do
    let yk = y.(k) in
    if yk <> 0.0 then
      for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
        let r = f.l_rowind.(p) in
        y.(r) <- y.(r) -. (f.l_values.(p) *. yk)
      done
  done;
  (* backward: U z = y', column-oriented *)
  for k = n - 1 downto 0 do
    y.(k) <- y.(k) /. f.u_diag.(k);
    let yk = y.(k) in
    if yk <> 0.0 then
      for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
        let r = f.u_rowind.(p) in
        y.(r) <- y.(r) -. (f.u_values.(p) *. yk)
      done
  done;
  (* undo the column permutation *)
  let x = Array.make n 0.0 in
  for k = 0 to n - 1 do
    x.(f.q.(k)) <- y.(k)
  done;
  x

(* Solve A^T x = b using the same factorisation. *)
let solve_transposed_vec f b =
  let n = f.n in
  assert (Array.length b = n);
  (* A = P^T L U Q^T  =>  A^T = Q U^T L^T P.  Solve U^T w = Q^T b, then
     L^T z = w, then x = P^T z. *)
  let w = Array.make n 0.0 in
  for k = 0 to n - 1 do
    w.(k) <- b.(f.q.(k))
  done;
  (* U^T w' = w: row-oriented over U's columns ascending *)
  for k = 0 to n - 1 do
    let acc = ref w.(k) in
    for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
      let r = f.u_rowind.(p) in
      acc := !acc -. (f.u_values.(p) *. w.(r))
    done;
    w.(k) <- !acc /. f.u_diag.(k)
  done;
  (* L^T z = w: descending, unit diagonal *)
  for k = n - 1 downto 0 do
    let acc = ref w.(k) in
    for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
      let r = f.l_rowind.(p) in
      acc := !acc -. (f.l_values.(p) *. w.(r))
    done;
    w.(k) <- !acc
  done;
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    x.(i) <- w.(f.pinv.(i))
  done;
  x
