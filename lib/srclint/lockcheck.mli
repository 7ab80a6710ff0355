(** The concurrency checker proper: walks every function body of every file
    with an abstract held-lock set, checks guarded-state accesses, spawn
    captures, blocking-under-lock and lock contracts, and builds the global
    lock-acquisition-order graph for cycle / declared-order analysis.

    Interprocedural reasoning is by name-based summaries (may-acquire /
    may-block) computed to a fixpoint over the call graph; everything else is
    intraprocedural over the parsetree. Parse errors and annotation issues
    are the caller's to report ({!Srclint}). *)

type edge = { efrom : string; eto : string; efile : string; eline : int }
(** [efrom] was held at [efile:eline] when [eto] was acquired. *)

type result = { items : Model.item list; edges : edge list }
(** [edges] is the deduplicated acquisition-order graph (first site wins). *)

val check : Model.file list -> result
