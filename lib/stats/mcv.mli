(** Most-common-value lists: the values PostgreSQL stores alongside
    histograms, with their frequency as a fraction of the table. *)

type t

val build : ?slots:int -> Value.t list -> t
(** Count the (non-NULL) input values and keep the [slots] most frequent
    (default 100). A value must occur at least twice to be kept. *)

val of_sorted :
  ?slots:int -> equal:('a -> 'a -> bool) -> box:('a -> Value.t) -> 'a array ->
  int * t
(** [of_sorted ~equal ~box sorted] is {!build} over the non-NULL values
    [sorted], already ascending in the order {!Value.compare} gives their
    boxed forms, paired with their number of distinct values. Counts runs
    of [equal] values in one pass and boxes only the values occurring at
    least twice. *)

val empty : t

val entries : t -> (Value.t * float) list
(** Most frequent first. *)

val frequency : t -> Value.t -> float option
(** Frequency of a value if it is in the list. *)

val total_fraction : t -> float
(** Combined fraction of the table covered by MCVs. *)

val count : t -> int
(** Number of entries. *)
