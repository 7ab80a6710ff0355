module Relset = Rdb_util.Relset
module Int_vec = Rdb_util.Int_vec
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Predicate = Rdb_query.Predicate
module Metrics = Rdb_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Two engines compute true cardinalities.

   The fast path applies when the query's join-attribute "class graph" is
   a tree: union the column references that its equi-join edges equate
   into classes; if the bipartite relation/class graph is acyclic (true
   for every JOB-shaped query, whose cycles only re-state the same
   equality), the cardinality of any connected relation subset factorizes,
   and we evaluate it by sum-product message passing over per-class count
   vectors — no intermediate result is ever materialized, so even the
   billion-row unfiltered sub-joins the perfect-(n) oracle must price are
   counted in milliseconds.

   The fallback materializes each sub-join bottom-up, projected onto its
   boundary join columns. It is exact for arbitrary (cyclic-class)
   queries but pays the full intermediate sizes. *)
(* ------------------------------------------------------------------ *)

(* A materialized sub-join (fallback engine): [width] cells per tuple,
   holding the values of the boundary columns [cols]. *)
type inter = {
  cols : (int * int) array;
  width : int;
  data : int array;
  inter_rows : int;
}

(* message maps: join-key value -> number of consistent join tuples *)
type msg_map = Count_table.t

type t = {
  catalog : Catalog.t;
  q : Query.t;
  graph : Join_graph.t;
  cards : (Relset.t, int) Hashtbl.t;
  tuples : (Relset.t, inter) Hashtbl.t;
  filtered : int array option array;
  mutable ensured : int;
  mutable materialized_rows : int;
  (* class-tree machinery *)
  tree : bool;                         (* class graph is acyclic *)
  ports : (int * int) list array;      (* per rel: (class, col) pairs *)
  root_dist : int array;               (* per rel: hops from the root *)
  msg_single_memo : (Relset.t * int, msg_map) Hashtbl.t;
  msg_set_memo : (Relset.t * int, msg_map) Hashtbl.t;
}

(* ---- class analysis ---- *)

(* Union-find over the column references appearing in join edges. *)
let analyze_classes (q : Query.t) =
  let parent : (Query.colref, Query.colref) Hashtbl.t = Hashtbl.create 32 in
  let rec find cr =
    match Hashtbl.find_opt parent cr with
    | None -> cr
    | Some p ->
      let root = find p in
      if root <> p then Hashtbl.replace parent cr root;
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then if ra < rb then Hashtbl.replace parent rb ra
      else Hashtbl.replace parent ra rb
  in
  List.iter (fun { Query.l; r } -> union l r) q.Query.edges;
  (* Assign dense ids to class roots. *)
  let ids : (Query.colref, int) Hashtbl.t = Hashtbl.create 16 in
  let id_of root =
    match Hashtbl.find_opt ids root with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids root i;
      i
  in
  let n = Query.n_rels q in
  let ports = Array.make n [] in
  let add_port (cr : Query.colref) =
    let cls = id_of (find cr) in
    let entry = (cls, cr.Query.col) in
    if not (List.mem entry ports.(cr.Query.rel)) then
      ports.(cr.Query.rel) <- entry :: ports.(cr.Query.rel)
  in
  List.iter
    (fun { Query.l; r } ->
      add_port l;
      add_port r)
    q.Query.edges;
  (* A relation whose two different columns land in one class would break
     the single-column-per-port invariant; treat as non-tree. *)
  let single_col_ports =
    Array.for_all
      (fun ps ->
        let classes = List.map fst ps in
        List.length classes = List.length (List.sort_uniq compare classes))
      ports
  in
  (* Acyclicity of the bipartite relation/class graph via union-find over
     nodes: relations are 0..n-1, classes are n, n+1, ... *)
  let n_classes = Hashtbl.length ids in
  let uf = Array.init (n + n_classes) Fun.id in
  let rec root i = if uf.(i) = i then i else begin uf.(i) <- root uf.(i); uf.(i) end in
  let acyclic = ref single_col_ports in
  Array.iteri
    (fun rel ps ->
      List.iter
        (fun (cls, _) ->
          let a = root rel and b = root (n + cls) in
          if a = b then acyclic := false else uf.(a) <- b)
        ps)
    ports;
  (!acyclic, ports)

(* Breadth-first distance of every relation from relation 0, the fixed
   root the tree engine anchors at, two relations being adjacent when they
   share a join class. *)
let root_distances ports =
  let n = Array.length ports in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  if n > 0 then begin
    dist.(0) <- 0;
    Queue.add 0 queue
  end;
  while not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    Array.iteri
      (fun r' ps ->
        if dist.(r') = max_int
           && List.exists (fun (cls, _) -> List.mem_assoc cls ps) ports.(r)
        then begin
          dist.(r') <- dist.(r) + 1;
          Queue.add r' queue
        end)
      ports
  done;
  dist

let create catalog q =
  let tree, ports = analyze_classes q in
  {
    catalog;
    q;
    graph = Join_graph.make q;
    cards = Hashtbl.create 256;
    tuples = Hashtbl.create 64;
    filtered = Array.make (Query.n_rels q) None;
    ensured = 0;
    materialized_rows = 0;
    tree;
    ports;
    root_dist = root_distances ports;
    msg_single_memo = Hashtbl.create 64;
    msg_set_memo = Hashtbl.create 64;
  }

let query t = t.q

let rel_table t i = Catalog.table_exn t.catalog t.q.Query.rels.(i).Query.table

let filtered_rowids t i =
  match t.filtered.(i) with
  | Some rows -> rows
  | None ->
    let tbl = rel_table t i in
    let preds = Query.preds_of_cols t.q i in
    let out = Int_vec.create ~capacity:1024 () in
    let n = Table.nrows tbl in
    let survives row =
      List.for_all
        (fun (col, p) ->
          match Table.column tbl col with
          | Column.Ints cells -> Predicate.eval_int p cells.(row)
          | Column.Strs cells -> Predicate.eval_str p cells.(row))
        preds
    in
    for row = 0 to n - 1 do
      if survives row then Int_vec.push out row
    done;
    let rows = Int_vec.to_array out in
    t.filtered.(i) <- Some rows;
    rows

let base_rows t i = Array.length (filtered_rowids t i)

(* ---- sum-product engine ---- *)

(* Relations of [s] adjacent through any class except [cut]. *)
let components_without t s ~cut =
  let adjacent a b =
    List.exists
      (fun (ca, _) ->
        ca <> cut && List.exists (fun (cb, _) -> cb = ca) t.ports.(b))
      t.ports.(a)
  in
  let remaining = ref s and comps = ref [] in
  while not (Relset.is_empty !remaining) do
    let seed = Relset.min_elt !remaining in
    let comp = ref (Relset.singleton seed) in
    let changed = ref true in
    while !changed do
      changed := false;
      Relset.iter
        (fun i ->
          if (not (Relset.mem i !comp))
             && Relset.fold (fun j acc -> acc || adjacent i j) !comp false
          then begin
            comp := Relset.add i !comp;
            changed := true
          end)
        !remaining
    done;
    comps := !comp :: !comps;
    remaining := Relset.diff !remaining !comp
  done;
  !comps

let port_col t rel cls = List.assoc_opt cls t.ports.(rel)

let touches_class t comp cls =
  Relset.fold
    (fun i acc -> acc || port_col t i cls <> None)
    comp false

(* Pointwise product of message maps, iterating the smallest. *)
let product_maps maps =
  match maps with
  | [] -> None
  | [ m ] -> Some m
  | _ ->
    let sorted =
      List.sort
        (fun a b -> Int.compare (Count_table.length a) (Count_table.length b))
        maps
    in
    (match sorted with
     | smallest :: rest ->
       let out = Count_table.create (Count_table.length smallest) in
       Count_table.iter
         (fun v w ->
           let acc = ref w in
           let alive =
             List.for_all
               (fun m ->
                 let w' = Count_table.find m v in
                 acc := !acc *. w';
                 w' > 0.0)
               rest
           in
           if alive then Count_table.add out v !acc)
         smallest;
       Some out
     | [] -> None)

let int_cells t rel col =
  match Table.column (rel_table t rel) col with
  | Column.Ints cells -> cells
  | Column.Strs _ -> invalid_arg "Oracle: join column is not an integer column"

(* msg_set (B, c): number of join tuples of B per value of class c, where
   B may split into several independent branches once c is cut. *)
let rec msg_set t b ~cls =
  match Hashtbl.find_opt t.msg_set_memo (b, cls) with
  | Some m -> m
  | None ->
    let comps = components_without t b ~cut:cls in
    let maps = List.map (fun comp -> msg_single t comp ~cls) comps in
    let m =
      match product_maps maps with
      | Some m -> m
      | None -> Count_table.create 0
    in
    Hashtbl.replace t.msg_set_memo (b, cls) m;
    m

(* msg_single (comp, c): comp stays connected with c cut, so exactly one
   relation in it (the hub) carries a port of class c. *)
and msg_single t comp ~cls =
  match Hashtbl.find_opt t.msg_single_memo (comp, cls) with
  | Some m -> m
  | None ->
    let hub =
      match
        List.filter (fun i -> port_col t i cls <> None) (Relset.to_list comp)
      with
      | [ h ] -> h
      | _ -> invalid_arg "Oracle: class graph is not a tree"
    in
    let out =
      match port_col t hub cls with
      | Some col -> int_cells t hub col
      | None -> assert false
    in
    let m = Count_table.create 16 in
    ignore (scan t hub (Relset.remove hub comp) ~into:(Some (out, m)));
    Hashtbl.replace t.msg_single_memo (comp, cls) m;
    m

(* The kernel: visit [hub]'s filtered rows, each weighted by the product of
   the messages [rest] (the rest of a connected set containing [hub]) sends
   in; rows a message does not cover drop out. Each branch of [rest] hangs
   on exactly one hub port class: touching two would close a cycle in the
   class tree, and two branches on one class would be a single component.
   Returns the total weight, summed in row order; [into] = [(cells, m)]
   also adds each surviving row's weight to [m] under its non-NULL value
   in [cells]. *)
and scan t hub rest ~into =
  let constrained =
    Array.of_list
      (List.map
         (fun sub ->
           match
             List.find_opt (fun (c, _) -> touches_class t sub c) t.ports.(hub)
           with
           | Some (c, col) -> (int_cells t hub col, msg_set t sub ~cls:c)
           | None -> invalid_arg "Oracle: dangling branch (not a tree)")
         (components_without t rest ~cut:(-1)))
  in
  let rows = filtered_rowids t hub in
  Metrics.incr ~by:(Array.length rows) "oracle.rows";
  let k = Array.length constrained in
  let total = ref 0.0 in
  for j = 0 to Array.length rows - 1 do
    let row = rows.(j) in
    let w = ref 1.0 and i = ref 0 in
    while !i < k do
      let cells, map = constrained.(!i) in
      (* message weights are counts >= 1, so 0 marks a dropped row (a NULL
         or unmatched key) *)
      let w' = Count_table.find map cells.(row) in
      if w' > 0.0 then begin
        w := !w *. w';
        incr i
      end
      else begin
        w := 0.0;
        i := k
      end
    done;
    if !w > 0.0 then begin
      total := !total +. !w;
      match into with
      | Some (out, m) ->
        let v = out.(row) in
        if v <> Column.null_int then Count_table.add m v !w
      | None -> ()
    end
  done;
  !total

(* Cardinality via the tree engine: anchor at the member of [s] nearest the
   fixed root (ties to the lower index), so every message points away from
   the root and the plan's nested node sets share their memo entries. *)
let card_tree t s =
  let anchor =
    Relset.fold
      (fun i best ->
        if best < 0 || t.root_dist.(i) < t.root_dist.(best) then i else best)
      s (-1)
  in
  scan t anchor (Relset.remove anchor s) ~into:None

(* ---- materialization engine (fallback for non-tree class graphs) ---- *)

let boundary t s =
  let acc = ref [] in
  let consider (cr : Query.colref) other =
    if Relset.mem cr.Query.rel s && not (Relset.mem other s) then
      acc := (cr.Query.rel, cr.Query.col) :: !acc
  in
  List.iter
    (fun { Query.l; r } ->
      consider l r.Query.rel;
      consider r l.Query.rel)
    t.q.Query.edges;
  List.sort_uniq compare !acc |> Array.of_list

let singleton_inter t i =
  let s = Relset.singleton i in
  let cols = boundary t s in
  let rows = filtered_rowids t i in
  let tbl = rel_table t i in
  let width = Array.length cols in
  let data = Array.make (Array.length rows * width) 0 in
  Array.iteri
    (fun idx row ->
      Array.iteri
        (fun c (_, col) -> data.((idx * width) + c) <- Table.int_cell tbl ~row ~col)
        cols)
    rows;
  { cols; width; data; inter_rows = Array.length rows }

let pos_of inter (rel, col) =
  let rec scan i =
    if i >= Array.length inter.cols then
      invalid_arg "Oracle: column not in boundary projection"
    else if inter.cols.(i) = (rel, col) then i
    else scan (i + 1)
  in
  scan 0

let extend t s' inter' r =
  let s = Relset.add r s' in
  let edges = Query.edges_between t.q s' (Relset.singleton r) in
  assert (edges <> []);
  let key_pos = Array.of_list (List.map (fun e -> pos_of inter' (e.Query.l.Query.rel, e.Query.l.Query.col)) edges) in
  let key_cols = Array.of_list (List.map (fun e -> e.Query.r.Query.col) edges) in
  let tbl = rel_table t r in
  let r_rows = filtered_rowids t r in
  let out_cols = boundary t s in
  let width = Array.length out_cols in
  let out_sources =
    Array.map
      (fun (rel, col) ->
        if rel = r then -(col + 1) else pos_of inter' (rel, col))
      out_cols
  in
  let out = Int_vec.create ~capacity:4096 () in
  let rows = ref 0 in
  let emit tuple_base r_row =
    Array.iter
      (fun src ->
        if src < 0 then
          Int_vec.push out (Table.int_cell tbl ~row:r_row ~col:(-src - 1))
        else Int_vec.push out inter'.data.(tuple_base + src))
      out_sources;
    incr rows
  in
  (match key_cols with
   | [| kc |] ->
     let index = Hashtbl.create (Array.length r_rows) in
     Array.iter
       (fun row ->
         let key = Table.int_cell tbl ~row ~col:kc in
         if key <> Column.null_int then
           Hashtbl.replace index key
             (row :: Option.value ~default:[] (Hashtbl.find_opt index key)))
       r_rows;
     let kp = key_pos.(0) in
     for i = 0 to inter'.inter_rows - 1 do
       let base = i * inter'.width in
       let key = inter'.data.(base + kp) in
       if key <> Column.null_int then
         match Hashtbl.find_opt index key with
         | Some matches -> List.iter (emit base) matches
         | None -> ()
     done
   | _ ->
     let index = Hashtbl.create (Array.length r_rows) in
     Array.iter
       (fun row ->
         let key = Array.map (fun col -> Table.int_cell tbl ~row ~col) key_cols in
         if not (Array.exists (fun v -> v = Column.null_int) key) then
           Hashtbl.replace index key
             (row :: Option.value ~default:[] (Hashtbl.find_opt index key)))
       r_rows;
     for i = 0 to inter'.inter_rows - 1 do
       let base = i * inter'.width in
       let key = Array.map (fun p -> inter'.data.(base + p)) key_pos in
       if not (Array.exists (fun v -> v = Column.null_int) key) then
         match Hashtbl.find_opt index key with
         | Some matches -> List.iter (emit base) matches
         | None -> ()
     done);
  t.materialized_rows <- t.materialized_rows + !rows;
  { cols = out_cols; width; data = Int_vec.to_array out; inter_rows = !rows }

let rec tuples_of t s =
  match Hashtbl.find_opt t.tuples s with
  | Some inter -> inter
  | None ->
    let inter =
      if Relset.cardinal s = 1 then singleton_inter t (Relset.min_elt s)
      else begin
        let r = Join_graph.removable t.graph s in
        let s' = Relset.remove r s in
        extend t s' (tuples_of t s') r
      end
    in
    Hashtbl.replace t.tuples s inter;
    Hashtbl.replace t.cards s inter.inter_rows;
    inter

(* ---- public interface ---- *)

let compute_card t s =
  Metrics.incr "oracle.cards";
  if t.tree then begin
    let v = card_tree t s in
    let card = int_of_float (Float.round v) in
    Hashtbl.replace t.cards s card;
    card
  end
  else begin
    let inter = tuples_of t s in
    let to_drop =
      Hashtbl.fold
        (fun set _ acc -> if Relset.cardinal set > 1 then set :: acc else acc)
        t.tuples []
    in
    List.iter (Hashtbl.remove t.tuples) to_drop;
    inter.inter_rows
  end

let true_card t s =
  if Relset.is_empty s then invalid_arg "Oracle.true_card: empty set";
  if not (Join_graph.is_connected t.graph s) then
    invalid_arg "Oracle.true_card: disconnected set";
  match Hashtbl.find_opt t.cards s with
  | Some card -> card
  | None -> compute_card t s

let ensure_up_to t size =
  if size > t.ensured then begin
    let subsets = Join_graph.connected_subsets t.graph in
    if t.tree then
      List.iter
        (fun s ->
          if Relset.cardinal s <= size && not (Hashtbl.mem t.cards s) then
            ignore (compute_card t s))
        subsets
    else begin
      let by_size = Array.make (Join_graph.n t.graph + 1) [] in
      List.iter
        (fun s ->
          let k = Relset.cardinal s in
          by_size.(k) <- s :: by_size.(k))
        subsets;
      let max_k = Int.min size (Join_graph.n t.graph) in
      for k = 1 to max_k do
        List.iter (fun s -> ignore (tuples_of t s)) by_size.(k);
        if k >= 2 then
          List.iter (fun s -> Hashtbl.remove t.tuples s) by_size.(k - 1)
      done;
      List.iter (fun s -> Hashtbl.remove t.tuples s) by_size.(max_k)
    end;
    (* The cards are what callers need; the message maps (tree engine) can
       be rebuilt on demand and would otherwise pin tens of MB per query. *)
    Hashtbl.reset t.msg_single_memo;
    Hashtbl.reset t.msg_set_memo;
    t.ensured <- size
  end

let stats t = (Hashtbl.length t.cards, t.materialized_rows)

let uses_tree_engine t = t.tree
