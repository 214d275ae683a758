(** Compressed-sparse-column real matrices, assembled from coordinate
    entries (duplicates summed). *)

type t = {
  rows : int;
  cols : int;
  colptr : int array;  (** length cols+1 *)
  rowind : int array;  (** length nnz, ascending within each column *)
  values : float array;
}

val of_entries : int -> int -> (int * int * float) list -> t
(** Assemble from coordinates; duplicate positions are summed. *)

val of_triplet : Triplet.t -> t
(** CSC from a triplet accumulator. *)
