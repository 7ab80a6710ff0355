(** Order statistics and failure accounting behind the benchmark's
    end-to-end report. *)

val median : float array -> float
(** Median (mean of the two middle values for an even count). Raises
    [Invalid_argument] on the empty array. *)

val percentile : ?min_beyond:int -> pct:int -> float array -> float option
(** Nearest-rank [pct]-th percentile, [pct] in [\[1, 99\]]. [None] unless
    at least [min_beyond] (default 10) samples rank beyond it: a tail
    percentile read off fewer samples is one or two outliers, not a
    distribution. *)

val windows : size:int -> 'a array -> 'a array list
(** Consecutive complete windows of [size] elements, in order; a trailing
    partial window is dropped. *)

val top_sum : int -> float array -> float
(** Sum of the [k] largest values (of all of them when there are fewer). *)

(** One operation's verdict. *)
type outcome =
  | Answered  (** completed with the answer-key result *)
  | Wrong  (** completed with a result that disagrees with the key *)
  | Failed  (** budget/deadline abort or an [Error] result *)

type tally = { attempted : int; failed : int; wrong : int }

val empty : tally
val add : tally -> outcome -> tally
val merge : tally -> tally -> tally

val error_rate : tally -> float
(** [failed / attempted]; 0 when nothing was attempted. Wrong answers are
    not failures: they fail the whole run instead. *)
