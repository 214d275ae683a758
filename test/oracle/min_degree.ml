(* Greedy minimum-degree ordering on the quotient-free elimination graph:
   repeatedly eliminate a lowest-degree node (ties to the lowest index)
   and clique its neighbourhood.  Quadratic worst case, so it serves only
   as a reference order for the sparse-LU tests and the ordering ablation;
   production factorisations pick between RCM and nested dissection
   (Ordering.Lower_fill). *)

module Int_set = Set.Make (Int)

let order (colptr : int array) (rowind : int array) n =
  let adj = Array.make n Int_set.empty in
  for j = 0 to n - 1 do
    for k = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(k) in
      if i <> j then begin
        adj.(i) <- Int_set.add j adj.(i);
        adj.(j) <- Int_set.add i adj.(j)
      end
    done
  done;
  let eliminated = Array.make n false in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) and best_deg = ref max_int in
    for i = 0 to n - 1 do
      if not eliminated.(i) then begin
        let d = Int_set.cardinal adj.(i) in
        if d < !best_deg then begin
          best := i;
          best_deg := d
        end
      end
    done;
    let u = !best in
    order.(k) <- u;
    eliminated.(u) <- true;
    let nbrs = Int_set.filter (fun v -> not eliminated.(v)) adj.(u) in
    Int_set.iter
      (fun v ->
        adj.(v) <- Int_set.remove u adj.(v);
        adj.(v) <- Int_set.union adj.(v) (Int_set.remove v nbrs))
      nbrs
  done;
  order

(* The order as a replayable scheme. *)
let scheme colptr rowind n = Pmtbr_sparse.Ordering.Given (order colptr rowind n)
