(* Compressed-sparse-column real matrices, assembled from coordinate
   entries (duplicates summed). *)

type t = {
  rows : int;
  cols : int;
  colptr : int array; (* length cols+1 *)
  rowind : int array; (* length nnz, ascending within each column *)
  values : float array;
}

let of_entries rows cols entries =
  let arr = Array.of_list entries in
  Array.iter (fun (i, j, _) -> assert (i >= 0 && i < rows && j >= 0 && j < cols)) arr;
  Array.sort (fun (i1, j1, _) (i2, j2, _) -> if j1 <> j2 then compare j1 j2 else compare i1 i2) arr;
  (* merge duplicates *)
  let merged = ref [] in
  Array.iter
    (fun (i, j, v) ->
      match !merged with
      | (i', j', v') :: rest when i = i' && j = j' -> merged := (i, j, v +. v') :: rest
      | _ -> merged := (i, j, v) :: !merged)
    arr;
  let merged = Array.of_list (List.rev !merged) in
  let n = Array.length merged in
  let colptr = Array.make (cols + 1) 0 in
  Array.iter (fun (_, j, _) -> colptr.(j + 1) <- colptr.(j + 1) + 1) merged;
  for j = 0 to cols - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  let rowind = Array.make n 0 and values = Array.make n 0.0 in
  Array.iteri
    (fun k (i, _, v) ->
      rowind.(k) <- i;
      values.(k) <- v)
    merged;
  { rows; cols; colptr; rowind; values }

let of_triplet (t : Triplet.t) =
  let rows, cols = Triplet.dims t in
  of_entries rows cols (Triplet.entries t)
