(** Entry point of the source-level analyzers: the fourth static-analysis
    layer (query -> plan -> sensitivity -> source). Loads and parses [.ml]
    files once, runs {!Lockcheck} + {!Registry} (racecheck), {!Exnflow}, or
    both over the same models, and renders a stable, deterministically
    sorted report suitable for CI diffs. *)

type item = Model.item = {
  file : string;
  line : int;
  finding : Rdb_analysis.Finding.t;
}

type race_counts = {
  locks : string list;  (** qualified lock names, sorted *)
  states : int;  (** number of declared/detected shared-state names *)
  edges : (string * string) list;  (** lock acquisition-order graph *)
}

type exn_counts = {
  functions : int;  (** functions with a summary *)
  resources : int;  (** tracked acquisition sites *)
  summaries : (string * Exnflow.sinfo) list;  (** ["base.fn"], sorted *)
}

type 'c report = {
  files : string list;  (** analyzed paths, sorted *)
  counts : 'c;  (** the analyzer's own inventory *)
  items : item list;
      (** findings, errors first, then file/line: each file's parse error
          and annotation issues once, then every analyzer's findings *)
}

(** {1 Analyzers} *)

val racecheck :
  ?registry:Registry.entry list -> Model.file list -> race_counts * item list
(** Concurrency safety. [registry] defaults to {!Registry.default}; pass
    [~registry:[]] for synthetic trees. *)

val exnflow :
  ?handlers:Exnflow.handler_entry list ->
  ?pinned:string list ->
  Model.file list ->
  exn_counts * item list
(** Exception flow. Defaults to {!Exnflow.default_handlers} /
    {!Exnflow.default_pinned}; pass [~handlers:[] ~pinned:[]] for synthetic
    trees. *)

val both : Model.file list -> (race_counts * exn_counts) * item list
(** Both analyzers with their default registries. *)

(** {1 Running} *)

val analyze_files :
  (Model.file list -> 'c * item list) -> string list -> 'c report
(** Load and parse exactly these files, then run the analyzer over them. *)

val analyze_tree :
  (Model.file list -> 'c * item list) -> root:string -> 'c report
(** Analyze every [.ml] under [root] (skips [_build]/[.git]). *)

val ml_files_under : string -> string list

val find_default_root : unit -> string option
(** Walk up from the cwd looking for the repo root (identified by
    [lib/util/pool.ml]); returns the [lib] directory to analyze. *)

(** {1 Reporting} *)

val errors : _ report -> item list

val exit_code : _ report -> int
(** 0 clean, 1 if any error-severity finding. *)

val render_race : race_counts report -> string

val render_exnflow : exn_counts report -> string

val race_to_json : race_counts report -> Rdb_obs.Json.t

val exnflow_to_json : exn_counts report -> Rdb_obs.Json.t
