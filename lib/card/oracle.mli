(** The true-cardinality oracle: for any connected set of relations [S] in a
    query, the exact number of rows produced by joining the members of [S]
    with all their base predicates applied.

    This is what the paper extracts from [EXPLAIN ANALYZE] (for the
    re-optimization trigger) and what it injects into the optimizer for the
    perfect-(n) experiments.

    Counting is sum-product message passing over the query's
    join-attribute class tree, with no intermediate materialized. A count
    anchors at the set's member nearest a fixed root (relation 0), so every
    message points away from the root and the memoized messages are reused
    across a plan's nested node sets. A message is a {!Count_table}: join-key
    value -> count, open addressing over an [int array] of keys and a
    [Float.Array] of counts, so the kernel's per-row probes allocate
    nothing. An absent key reads as [0.0], which is also the kernel's mark
    for a dropped row; counts accumulate in row order, so every count is
    the same float a boxed hash table gave. Queries whose class graph is cyclic
    fall back to materializing sub-joins bottom-up, projected onto their
    "boundary" join columns. Cardinalities are cached for the oracle's
    lifetime; [Reopt.run] keeps the original query's oracle for every step
    of a run, mapping temp tables back to the relations they stand for.

    Counters: [oracle.cards] counts cardinalities computed (cache misses),
    [oracle.rows] the rows the sum-product kernel visits. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query

type t

val create : Catalog.t -> Query.t -> t

val query : t -> Query.t

val base_rows : t -> int -> int
(** Filtered cardinality of a single relation (its predicates applied). *)

val filtered_rowids : t -> int -> int array
(** Row ids of a relation surviving its predicates. Do not mutate. *)

val true_card : t -> Relset.t -> int
(** True cardinality of a connected, non-empty relation set. Computed on
    demand; raises [Invalid_argument] on disconnected or empty sets. *)

val ensure_up_to : t -> int -> unit
(** Precompute [true_card] for every connected subset of at most the given
    size, bottom-up, releasing intermediate tuple memory along the way. *)

val stats : t -> int * int
(** (number of cached cardinalities, rows materialized so far); for tests
    and diagnostics. *)

val uses_tree_engine : t -> bool
(** Whether the query's join-attribute class graph is a tree, enabling the
    factorized sum-product counting engine; non-tree queries fall back to
    bottom-up materialization of boundary projections. *)
