(* Compressed-sparse-column real matrices, assembled from coordinate
   entries (duplicates summed). *)

open Pmtbr_la

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

let nnz t = Array.length t.rowind

let mv t x =
  assert (Array.length x = t.cols);
  let y = Array.make t.rows 0.0 in
  for j = 0 to t.cols - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
        let i = t.rowind.(k) in
        y.(i) <- y.(i) +. (t.values.(k) *. xj)
      done
  done;
  y

let mv_transposed t x =
  assert (Array.length x = t.rows);
  let y = Array.make t.cols 0.0 in
  for j = 0 to t.cols - 1 do
    let acc = ref 0.0 in
    for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      acc := !acc +. (t.values.(k) *. x.(t.rowind.(k)))
    done;
    y.(j) <- !acc
  done;
  y

let to_entries t =
  let acc = ref [] in
  for j = t.cols - 1 downto 0 do
    for k = t.colptr.(j + 1) - 1 downto t.colptr.(j) do
      acc := (t.rowind.(k), j, t.values.(k)) :: !acc
    done
  done;
  !acc

let to_dense (m : t) =
  let d = Mat.create m.rows m.cols in
  for j = 0 to m.cols - 1 do
    for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
      Mat.update d m.rowind.(k) j (fun x -> x +. m.values.(k))
    done
  done;
  d
