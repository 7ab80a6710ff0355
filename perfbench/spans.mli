(** Spans of the traced run: the benchmark's own spans around its calls
    into each layer, merged with the spans the program emits through
    {!Rdb_obs.Trace}, and each span's self time by containment.

    The program's JSON-lines records carry a per-domain nesting depth and
    are written when a span ends, so on one domain every span's children
    are exactly the deeper records written since its previous sibling.
    The benchmark brackets each of its own spans with
    [perfbench.begin] / [perfbench.end] trace events, so a program span
    that is outermost on its domain belongs to the innermost benchmark
    span open on that domain when it was written. Neither step compares
    timestamps. *)

type origin = Bench | Program

type span = {
  id : int;
  name : string;
  layer : string;  (** the repo module the span's time is charged to *)
  origin : origin;
  domain : int;
  start_ms : float;
      (** benchmark spans: since the recorder started; program spans: as
          the trace reports it *)
  dur_ms : float;
  parent : int option;
  request : int option;  (** benchmark request id, when one applies *)
}

(** {1 Recording the benchmark's spans} *)

type recorder

val recorder : ?marker:(string -> int -> unit) -> enabled:bool -> unit -> recorder
(** A disabled recorder runs the wrapped calls and records nothing.
    [marker kind id] is called with ["begin"] and ["end"] around each
    span; the benchmark emits them as trace events. *)

val span :
  recorder -> ?parent:int -> ?request:int -> layer:string -> string ->
  (int -> 'a) -> 'a
(** [span r ~layer name f] runs [f id] inside a span. Thread-safe. The id
    is [-1] when the recorder is disabled. *)

val recorded : recorder -> span list
(** In start order. *)

(** {1 The program's spans} *)

type record = {
  r_name : string;
  r_kind : string;  (** ["span"] or ["event"] *)
  r_domain : int;
  r_depth : int;
  r_start_ms : float;
  r_dur_ms : float;
  r_attrs : (string * string) list;
}

val parse_record : string -> record option
(** One JSON line of the [Rdb_obs.Trace] sink. *)

val program_layer : string -> string
(** The module a program span's self time belongs to: [session.prepare]
    is [core.session], [session.plan] is [plan], [reopt.analyze] is
    [stats], and so on. *)

val merge : bench:span list -> record list -> span list
(** The benchmark's spans followed by the program's, numbered after them,
    with every parent link resolved. [records] must be in the order the
    sink wrote them. *)

(** {1 Self time} *)

val self_times : span list -> (span * float) list
(** Each span's duration minus the durations of its direct children. *)

val to_json : span -> Rdb_obs.Json.t
