(** The answer key: one result per JOB query, with a digest of the data
    it was computed on, stored as text.

    The file holds comment lines starting with [#], one [data <hex>] line
    and one line per query: the query name, then each aggregate value,
    tab-separated. A value is [N] (NULL), [I] followed by an integer, or
    [S] followed by an OCaml-escaped string. *)

type t = {
  data : string;  (** {!data_digest} of the data the answers hold for *)
  answers : (string * Rdb_storage.Value.t list) list;
      (** query name and result, in JOB order *)
}

val to_string : ?comment:string -> t -> string
val of_string : string -> t
(** Raises [Failure] on a malformed key. *)

val data_digest : Rdb_storage.Catalog.t -> tables:string list -> string
(** Hex digest of every cell of [tables], in order. Reads the columns in
    bounded chunks, so it allocates little beyond the data. *)
