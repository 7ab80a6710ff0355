(** Per-file concurrency model extracted from the parsetree + annotations:
    which names are locks, which are shared state (and under which guard),
    which functions carry lock contracts, and where suppressions apply. *)

type guard =
  | Guarded of string  (** qualified lock name, e.g. [pool.mu] *)
  | Confined  (** domain-local / single-owner; no lock needed *)
  | Unannotated  (** auto-detected shared state with no annotation yet *)

type skind = Field | Top | Local

type state = {
  sname : string;
  skind : skind;
  sline : int;
  mutable sguard : guard;
}

type lock = { lshort : string; lline : int }

type fannot = {
  floc : int;
  mutable frequires : string list;  (** qualified *)
  mutable facquires : string list;  (** qualified *)
  mutable fwith_lock : string list;  (** qualified *)
  mutable freleases : string list;  (** raw: resource idents or lock names *)
}

type issue = { iline : int; itext : string; isev : [ `Error | `Warning ] }

type file = {
  path : string;  (** as passed to [load] *)
  base : string;  (** lowercased module basename, used to qualify locks *)
  structure : Ppxlib.structure;  (** empty when [parse_error] is set *)
  locks : (string, lock) Hashtbl.t;  (** short name -> lock *)
  states : (string, state) Hashtbl.t;
  funs : (string, fannot) Hashtbl.t;
  race_ok : (int, unit) Hashtbl.t;  (** lines carrying @race_ok *)
  cleanup_ok : (int, unit) Hashtbl.t;  (** lines carrying @cleanup_ok *)
  swallow_ok : (int, unit) Hashtbl.t;  (** lines carrying @swallow_ok *)
  orders : (string * string * int) list;  (** qualified a-before-b + line *)
  issues : issue list;  (** bad/dangling annotations *)
  parse_error : string option;
}

type item = { file : string; line : int; finding : Rdb_analysis.Finding.t }
(** One located finding, as every checker reports it. *)

val emit :
  item list ref ->
  string ->
  int ->
  [ `E | `W ] ->
  string ->
  ('a, unit, string, unit) format4 ->
  'a
(** [emit items file line sev code fmt ...] adds an error ([`E]) or
    warning ([`W]) finding with a printf-formatted message. *)

val qualify : string -> string -> string
(** [qualify base name] is [name] if already dotted, else [base.name]. *)

val of_source : path:string -> string -> file
(** Parse and extract; never raises (syntax errors land in [parse_error]). *)

val load : string -> file
(** [of_source] over the contents of a file on disk. *)

val suppressed : file -> int -> bool
(** Is line [n] covered by a [@race_ok] on the same or previous line? *)

val cleanup_suppressed : file -> int -> bool
(** Is line [n] covered by a [@cleanup_ok] on the same or previous line? *)

val swallow_suppressed : file -> int -> bool
(** Is line [n] covered by a [@swallow_ok] on the same or previous line? *)

val has_suffix : string -> file -> bool
(** Does the file's path (with [/] separators) end with this suffix? *)

(** {1 Syntax helpers shared by the checkers} *)

val lid_last : Ppxlib.longident -> string

val last2 : Ppxlib.longident -> string * string
(** Last module component and value name: [Rdb_util.Pool.submit] is
    [("Pool", "submit")]; an unqualified [f] is [("", "f")]. *)

val unconstrain : Ppxlib.expression -> Ppxlib.expression
(** Strip type constraints. *)

val is_closure : Ppxlib.expression -> bool
(** Is this (up to constraints) a function literal? *)

val pat_name : Ppxlib.pattern -> string option
(** The variable a [let] pattern binds, if it is a plain (constrained)
    variable. *)

val pat_vars : Ppxlib.pattern -> Set.Make(String).t
(** Every variable a pattern binds. *)

val children : Ppxlib.expression -> Ppxlib.expression list
(** Depth-1 child expressions, for AST constructors with no special rule. *)

val lock_of_expr : file -> Ppxlib.expression -> string option
(** The qualified lock a [Mutex.*] argument names, if it is one of the
    file's locks. *)

val is_spawn : string * string -> bool
(** Does this {!last2} head hand a closure to another domain/thread
    ([Domain.spawn], [Thread.create], [Pool.submit]/[map]/[run])? *)

val diverges : Ppxlib.expression -> bool
(** Does this expression always raise/fail, so its branch never merges? *)

val bindings_of : file -> (string * Ppxlib.expression) list
(** Every named binding whose body can be summarized: toplevel values and
    local closures. *)

val resolve : file -> Ppxlib.longident -> string * string
(** The summary key [(file base, name)] a call through this identifier
    names; unqualified names resolve to the current file. *)

val summarize :
  file list ->
  init:(unit -> 's) ->
  facts:(file -> string -> 's -> Ppxlib.expression -> unit) ->
  calls:('s -> ((string * string) * 'site) list) ->
  absorb:('s -> 'site -> 's -> bool) ->
  (string * string, 's) Hashtbl.t
(** Interprocedural summaries keyed by {!resolve}: one per binding of
    {!bindings_of} (created by [init], filled by [facts file name]), then
    iterated to a fixpoint over the call graph. [calls s] lists the callee
    keys of [s] with per-call-site data; [absorb s site callee] merges a
    callee's summary into [s] and says whether [s] grew. *)
