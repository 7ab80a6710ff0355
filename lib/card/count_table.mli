(** The true-cardinality oracle's message tables: join-key value -> number
    of consistent join tuples, by open addressing. Keys live in an
    [int array] and counts in a [Float.Array], so neither a lookup nor an
    update allocates. {!Column.null_int} marks an empty slot; it is never a
    key, since a NULL join key matches nothing. The table starts small and
    doubles once three quarters of its slots are taken. *)

type t

val create : int -> t
(** An empty table sized for about the given number of keys. *)

val length : t -> int
(** Number of keys. *)

val find : t -> int -> float
(** The key's count; [0.0] when the key is absent, {!Column.null_int}
    included. Stored counts are positive, so [0.0] doubles as the oracle
    kernel's "row dropped" marker. *)

val add : t -> int -> float -> unit
(** [add t k w] adds [w] to [k]'s count, inserting [k] with [0.0 +. w]
    when absent. Raises [Invalid_argument] on {!Column.null_int}. *)

val iter : (int -> float -> unit) -> t -> unit
(** Every key once, with its count, in slot order. *)
