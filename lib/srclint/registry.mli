(** Checked registry of the known shared mutable state in the serving
    stack. Every entry must exist in the analyzed tree, every listed state
    must be declared there, and every auto-detected state in a registered
    file must carry a [@guarded_by]/[@confined] annotation — so new shared
    state cannot be added to these files without declaring its discipline. *)

type entry = { suffix : string; required : string list }
(** [suffix] matches the end of an analyzed path ([util/pool.ml]). *)

val default : entry list
(** The serving stack: pool, plan_cache, service, frontend, metrics, trace,
    runner. *)

val check : entry list -> Model.file list -> Model.item list

val find_pinned :
  Model.item list ref ->
  what:string ->
  Model.file list ->
  string ->
  Model.file option
(** The analyzed file whose path ends with this suffix; when there is none,
    adds a [src-registry-missing-file] error naming the suffix as [what]
    (["registered file"], ["pinned serving-stack file"], ...). *)
