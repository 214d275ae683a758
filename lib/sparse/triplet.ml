(* Coordinate-format accumulator used while stamping circuit matrices.
   Entries at the same (row, col) are summed when converting to CSC. *)

type t = {
  mutable rows : int;
  mutable cols : int;
  mutable entries : (int * int * float) list;
  mutable count : int;
}

let create rows cols = { rows; cols; entries = []; count = 0 }

let add t i j v =
  assert (i >= 0 && j >= 0);
  if i >= t.rows then t.rows <- i + 1;
  if j >= t.cols then t.cols <- j + 1;
  if v <> 0.0 then begin
    t.entries <- (i, j, v) :: t.entries;
    t.count <- t.count + 1
  end

let entries t = t.entries
let dims t = (t.rows, t.cols)
let nnz t = t.count

let copy t = { t with entries = t.entries }

(* Union of two accumulators with scalar weights: alpha*a + beta*b. *)
let axpby alpha a beta b =
  let out = create (max a.rows b.rows) (max a.cols b.cols) in
  List.iter (fun (i, j, v) -> add out i j (alpha *. v)) a.entries;
  List.iter (fun (i, j, v) -> add out i j (beta *. v)) b.entries;
  out

(* Duplicates are summed in list order. *)
let to_dense t =
  let m = Pmtbr_la.Mat.create t.rows t.cols in
  let d = m.Pmtbr_la.Mat.data in
  List.iter
    (fun (i, j, v) ->
      let k = (i * t.cols) + j in
      d.(k) <- d.(k) +. v)
    t.entries;
  m

let transpose t =
  { t with
    rows = t.cols;
    cols = t.rows;
    entries = List.map (fun (i, j, v) -> (j, i, v)) t.entries }

(* Matrix-vector product straight off the triplets (no assembly needed). *)
let mv t x =
  assert (Array.length x = t.cols);
  let y = Array.make t.rows 0.0 in
  List.iter (fun (i, j, v) -> y.(i) <- y.(i) +. (v *. x.(j))) t.entries;
  y

let mv_transposed t x =
  assert (Array.length x = t.rows);
  let y = Array.make t.cols 0.0 in
  List.iter (fun (i, j, v) -> y.(j) <- y.(j) +. (v *. x.(i))) t.entries;
  y

(* Dense product T * M for dense M (used to form E*V etc. during
   projection): each entry adds its multiple of row j of M into row i of
   the output, entries in list order. *)
let mul_dense t (m : Pmtbr_la.Mat.t) =
  assert (t.cols = m.Pmtbr_la.Mat.rows);
  let p = m.Pmtbr_la.Mat.cols in
  let out = Pmtbr_la.Mat.create t.rows p in
  let od = out.Pmtbr_la.Mat.data and md = m.Pmtbr_la.Mat.data in
  List.iter
    (fun (i, j, v) ->
      let orow = i * p and mrow = j * p in
      for c = 0 to p - 1 do
        od.(orow + c) <- od.(orow + c) +. (v *. md.(mrow + c))
      done)
    t.entries;
  out
