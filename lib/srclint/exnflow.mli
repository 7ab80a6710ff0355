(** Exception-flow analysis: the error-path twin of {!Lockcheck}.

    Per-function summaries [{raises; handles; releases}] are computed by a
    syntactic facts pass and iterated to fixpoint over the name-based call
    graph; an intraprocedural walker then threads live/protected resource
    sets and enclosing catch masks through every function body and checks
    leak-on-raise, spawn-escape, and designated-handler discipline.

    Calibration: unknown calls are assumed non-raising, a short primitive
    table is assumed raising, and [Fun.protect]/[Mutex.protect]/[@releases]
    are the recognized sound release shapes. *)

type sinfo = {
  si_raises : string list;  (** named constructors that may escape *)
  si_any : bool;  (** may also raise something unnamed *)
  si_handles : string list;  (** constructors named by its handlers *)
  si_releases : string list;  (** caller resources released on all paths *)
}

type handler_entry = { hsuffix : string; hexns : string list }
(** [hexns] may only be caught in files whose path ends with [hsuffix]. *)

val control_exns : string list
(** Control exceptions under designated-handler discipline:
    [Work_budget_exceeded], [Deadline_exceeded], [Over_budget],
    [Verify_failed]. *)

val default_handlers : handler_entry list
(** The registry-pinned handler sites (the harness layers that record
    capped cells). *)

val default_pinned : string list
(** Serving-stack files that must be present in the analyzed tree. *)

type result = {
  items : Model.item list;
  summaries : (string * sinfo) list;  (** ["base.fn"] -> summary, sorted *)
  resources : int;  (** tracked acquisition sites *)
}

val check :
  ?handlers:handler_entry list ->
  ?pinned:string list ->
  Model.file list ->
  result
(** Pass [~handlers:[] ~pinned:[]] for synthetic trees. *)
