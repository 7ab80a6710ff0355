(* One sort per column: the sorted values give the distinct count and the
   MCV list (from runs of equal values) and, for integers, min/max and the
   histogram bounds. *)
let column ?(buckets = 100) ?(mcv_slots = 100) tbl c =
  let n = Table.nrows tbl in
  match Table.column tbl c with
  | Column.Ints cells ->
    let n_non_null =
      Array.fold_left
        (fun acc v -> if v <> Column.null_int then acc + 1 else acc)
        0 cells
    in
    let sorted = Array.make n_non_null 0 in
    let k = ref 0 in
    Array.iter
      (fun v ->
        if v <> Column.null_int then begin
          sorted.(!k) <- v;
          incr k
        end)
      cells;
    (* merge sort: measured faster than the heap sort of [Array.sort] *)
    Array.stable_sort Int.compare sorted;
    let distinct, mcv =
      Mcv.of_sorted ~slots:mcv_slots ~equal:Int.equal
        ~box:(fun v -> Value.Int v) sorted
    in
    {
      Col_stats.row_count = n;
      null_frac =
        (if n = 0 then 0.0
         else float_of_int (n - n_non_null) /. float_of_int n);
      n_distinct = Int.max 1 distinct;
      min_val = (if n_non_null = 0 then None else Some sorted.(0));
      max_val =
        (if n_non_null = 0 then None else Some sorted.(n_non_null - 1));
      mcv;
      hist = Histogram.of_sorted ~buckets sorted;
    }
  | Column.Strs cells ->
    let sorted = Array.copy cells in
    Array.stable_sort String.compare sorted;
    let distinct, mcv =
      Mcv.of_sorted ~slots:mcv_slots ~equal:String.equal
        ~box:(fun s -> Value.Str s) sorted
    in
    {
      Col_stats.row_count = n;
      null_frac = 0.0;
      n_distinct = Int.max 1 distinct;
      min_val = None;
      max_val = None;
      mcv;
      hist = None;
    }

let table ?buckets ?mcv_slots tbl =
  Array.init (Schema.arity (Table.schema tbl)) (fun c ->
      column ?buckets ?mcv_slots tbl c)

let all ?buckets ?mcv_slots catalog store =
  List.iter
    (fun tbl ->
      Db_stats.set store ~table:(Table.name tbl) (table ?buckets ?mcv_slots tbl))
    (Catalog.tables catalog)
