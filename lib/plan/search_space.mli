(** The materialized csg-cmp-pair list of one query's join graph, sorted so
    that every pair is seen only after all pairs composing its components.
    The search space depends only on the graph, never on statistics, so one
    instance is shared across every estimator configuration the experiments
    sweep over. *)

module Relset = Rdb_util.Relset
module Join_graph := Rdb_query.Join_graph

type t

val build : Join_graph.t -> t

val iter : t -> (Relset.t -> Relset.t -> unit) -> unit
(** Pairs in ascending order of [|s1 ∪ s2|]. Within one size level the
    order is a fixed permutation of DPccp's emission order: the one
    [Array.sort]'s heap sort makes of the reversed emission order. That
    order is load-bearing: the DP keeps the first of several equal-cost
    plans, so permuting a level changes plan shapes at equal cost. It stays
    until the DP breaks cost ties by a canonical key. *)

val n_pairs : t -> int
