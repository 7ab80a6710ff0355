(** A domain-safe metrics registry: named monotonic counters and simple
    value distributions (count/sum/min/max), updated from any domain.

    The registry is sharded per domain — every update touches only the
    calling domain's shard under its own (uncontended) mutex, and
    {!snapshot} merges all shards — so the pool's workers record freely
    and the totals are exact at pool join, consistent with the
    determinism story of [Rdb_util.Pool] / [Rdb_harness.Runner].

    The pipeline records: [plan.built], [plan.dp_pairs] and the
    [plan.ms] distribution from the optimizer; [exec.queries],
    [exec.work], [exec.switches], [exec.budget_aborts] and
    [exec.deadline_aborts] from the executor; [reopt.steps] and
    [reopt.temp_rows] from the re-optimization loop; [oracle.cards] and
    [oracle.rows] from the true-cardinality oracle; [est.edge_sels] from
    the estimator, one per join-edge selectivity it computes (each edge at
    most once per orientation and estimator). *)

type stat = { count : int; sum : float; min : float; max : float }

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  stats : (string * stat) list;    (** sorted by name *)
}

val incr : ?by:int -> string -> unit
val observe : string -> float -> unit

val snapshot : unit -> snapshot
(** Merge every domain's shard. Safe to call concurrently with updates;
    each shard is read atomically. *)

val reset : unit -> unit
(** Zero every shard (tests, per-run reports). *)

val counter : snapshot -> string -> int
(** Counter value in a snapshot, 0 when absent. *)

val diff_counters : after:snapshot -> before:snapshot -> (string * int) list
(** Counter deltas between two snapshots, omitting zero deltas — the
    per-experiment metrics block of the bench report. *)

val to_json : snapshot -> Json.t
