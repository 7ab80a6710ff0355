module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Predicate = Rdb_query.Predicate
module Estimator = Rdb_card.Estimator
module Cost_model = Rdb_cost.Cost_model

type stats = {
  pairs_considered : int;
  subsets_planned : int;
  plan_ms : float;
}

let now_ms () = Unix.gettimeofday () *. 1000.0

type lint_hook =
  catalog:Catalog.t -> estimator:Estimator.t -> Query.t -> Plan.t -> unit

let lint_hook : lint_hook option ref = ref None

let lint_enabled ?lint () =
  match lint with
  | Some b -> b
  | None -> (match Sys.getenv_opt "RDB_LINT" with
             | Some ("1" | "true") -> true
             | Some _ | None -> false)

let run_lint_hook ~lint ~catalog ~estimator q plan =
  if lint_enabled ?lint () then
    match !lint_hook with
    | Some hook -> hook ~catalog ~estimator q plan
    | None -> ()

let verify_hook : lint_hook option ref = ref None

let verify_enabled ?verify () =
  match verify with
  | Some b -> b
  | None -> (match Sys.getenv_opt "RDB_VERIFY" with
             | Some ("1" | "true") -> true
             | Some _ | None -> false)

let run_verify_hook ~verify ~catalog ~estimator q plan =
  if verify_enabled ?verify () then
    match !verify_hook with
    | Some hook -> hook ~catalog ~estimator q plan
    | None -> ()

let sensitivity_hook : lint_hook option ref = ref None

let sensitivity_enabled ?sensitivity () =
  match sensitivity with
  | Some b -> b
  | None -> (match Sys.getenv_opt "RDB_SENSITIVITY" with
             | Some ("" | "0" | "false") | None -> false
             | Some _ -> true)

let run_sensitivity_hook ~sensitivity ~catalog ~estimator q plan =
  if sensitivity_enabled ?sensitivity () then
    match !sensitivity_hook with
    | Some hook -> hook ~catalog ~estimator q plan
    | None -> ()

let resource_hook : lint_hook option ref = ref None

let resource_enabled ?resource () =
  match resource with
  | Some b -> b
  | None -> (match Sys.getenv_opt "RDB_RESOURCE" with
             | Some ("" | "0" | "false") | None -> false
             | Some _ -> true)

let run_resource_hook ~resource ~catalog ~estimator q plan =
  if resource_enabled ?resource () then
    match !resource_hook with
    | Some hook -> hook ~catalog ~estimator q plan
    | None -> ()

(* Cartesian products are unsupported (as in the paper's workload); a
   disconnected join graph is a query bug, so name the components to make
   the report actionable. *)
let check_connected graph (q : Query.t) =
  let n = Query.n_rels q in
  if n = 0 then invalid_arg "Optimizer: query with no relations";
  let full = Relset.full n in
  if not (Join_graph.is_connected graph full) then begin
    let render c =
      "{"
      ^ String.concat "," (List.map (Query.rel_alias q) (Relset.to_list c))
      ^ "}"
    in
    let comps = Join_graph.components graph full in
    invalid_arg
      (Printf.sprintf
         "Optimizer: join graph of %s is disconnected (cartesian product); \
          components: %s"
         q.Query.name
         (String.concat " | " (List.map render comps)))
  end

(* Cheapest access path for a single relation: sequential scan, or an
   equality index scan seeded by one of its own predicates. *)
let scan_plan ~cp ~catalog ~estimator (q : Query.t) rel =
  let table = Catalog.table_exn catalog q.Query.rels.(rel).Query.table in
  let preds = Query.preds_of_cols q rel in
  let est = Estimator.base_card estimator rel in
  let seq_cost =
    Cost_model.seq_scan cp
      ~rows:(float_of_int (Table.nrows table))
      ~npreds:(List.length preds)
  in
  let best = ref (Plan.Seq_scan, seq_cost) in
  List.iter
    (fun (col, p) ->
      match p with
      | Predicate.Cmp (Predicate.Eq, Value.Int key) ->
        (match Catalog.index catalog ~table:(Table.name table) ~col with
         | Some _ ->
           let sel = Estimator.pred_selectivity estimator ~rel ~col p in
           let matches = Float.max 1.0 (Estimator.table_rows estimator rel *. sel) in
           let cost =
             Cost_model.index_scan cp ~matches ~npreds:(List.length preds - 1)
           in
           if cost < snd !best then
             best := (Plan.Index_scan { col; key }, cost)
         | None -> ())
      | _ -> ())
    preds;
  let access, cost = !best in
  Plan.Scan { Plan.scan_rel = rel; access; scan_est = est; scan_cost = cost }

(* Per-query lookups the DP loops read instead of walking the query and
   the catalog: the join graph's oriented edges, whether an oriented edge's
   inner ([r]) column carries an index, and each relation's predicate
   count. *)
type ctx = {
  graph : Join_graph.t;
  inner_indexed : bool array;  (* by oriented edge id *)
  npreds : int array;
}

let context ~catalog graph (q : Query.t) =
  {
    graph;
    inner_indexed =
      Array.init
        (2 * Join_graph.n_edges graph)
        (fun k ->
          let r = (Join_graph.oriented_edge graph k).Query.r in
          let table = q.Query.rels.(r.Query.rel).Query.table in
          Catalog.index catalog ~table ~col:r.Query.col <> None);
    npreds =
      Array.init (Query.n_rels q) (fun rel ->
          List.length (Query.preds_of_cols q rel));
  }

(* [Query.edges_between q so si], from the preallocated records. *)
let edges_between cx so si =
  let acc = ref [] in
  for i = Join_graph.n_edges cx.graph - 1 downto 0 do
    let k = Join_graph.crossing_edge cx.graph i so si in
    if k >= 0 then acc := Join_graph.oriented_edge cx.graph k :: !acc
  done;
  !acc

(* Index-nested-loop applies when the inner side is a single base relation
   with a hash index on one of the connecting join columns: the first such
   column in edge order, with the number of connecting edges. *)
let inl_inner_col cx so inner =
  match inner with
  | Plan.Scan { Plan.scan_rel; _ } ->
    let si = Relset.singleton scan_rel in
    let col = ref (-1) and n_edges = ref 0 in
    for i = 0 to Join_graph.n_edges cx.graph - 1 do
      let k = Join_graph.crossing_edge cx.graph i so si in
      if k >= 0 then begin
        incr n_edges;
        if !col < 0 && cx.inner_indexed.(k) then
          col := (Join_graph.oriented_edge cx.graph k).Query.r.Query.col
      end
    done;
    if !col < 0 then None else Some (!col, !n_edges, scan_rel)
  | Plan.Join _ -> None

(* Offer [outer ⋈ inner] over [so ∪ si] to the DP table, candidates in a
   fixed order (hash, nested loop, merge, index nested loop), each kept
   only when strictly cheaper than the current best. The edge list is
   built only once a candidate wins. *)
let consider ~cp cx best su ~est ~outer ~inner ~so ~si =
  let outer_rows = Plan.est_rows outer and inner_rows = Plan.est_rows inner in
  let outer_cost = Plan.cost outer and inner_cost = Plan.cost inner in
  let edges = lazy (edges_between cx so si) in
  let offer algo cost =
    let better =
      match Relset.Tbl.find_opt best su with
      | Some current -> cost < Plan.cost current
      | None -> true
    in
    if better then
      Relset.Tbl.replace best su
        (Plan.Join
           {
             Plan.algo;
             outer;
             inner;
             join_est = est;
             join_cost = cost;
             join_edges = Lazy.force edges;
           })
  in
  offer Plan.Hash_join
    (outer_cost +. inner_cost
     +. Cost_model.hash_join cp ~build:inner_rows ~probe:outer_rows ~out:est);
  offer Plan.Nested_loop
    (outer_cost +. inner_cost
     +. Cost_model.nested_loop cp ~outer:outer_rows ~inner:inner_rows ~out:est);
  offer Plan.Merge_join
    (outer_cost +. inner_cost
     +. Cost_model.merge_join cp ~outer:outer_rows ~inner:inner_rows ~out:est);
  match inl_inner_col cx so inner with
  | Some (inner_col, n_edges, inner_rel) ->
    let npreds = cx.npreds.(inner_rel) + n_edges - 1 in
    offer (Plan.Index_nl { inner_col })
      (outer_cost +. Cost_model.index_nested_loop cp ~outer:outer_rows ~out:est ~npreds)
  | None -> ()

let dp ?space ?(cost_params = Cost_model.default) ~catalog ~estimator (q : Query.t) =
  let cp = cost_params in
  let graph = Join_graph.make q in
  let n = Query.n_rels q in
  check_connected graph q;
  let space =
    match space with Some s -> s | None -> Search_space.build graph
  in
  let start = now_ms () in
  let cx = context ~catalog graph q in
  let best : Plan.t Relset.Tbl.t = Relset.Tbl.create 256 in
  for rel = 0 to n - 1 do
    Relset.Tbl.replace best (Relset.singleton rel)
      (scan_plan ~cp ~catalog ~estimator q rel)
  done;
  let pairs = ref 0 in
  Search_space.iter space (fun s1 s2 ->
      incr pairs;
      let su = Relset.union s1 s2 in
      let p1 = Relset.Tbl.find best s1 and p2 = Relset.Tbl.find best s2 in
      let est = Estimator.card estimator su in
      consider ~cp cx best su ~est ~outer:p1 ~inner:p2 ~so:s1 ~si:s2;
      consider ~cp cx best su ~est ~outer:p2 ~inner:p1 ~so:s2 ~si:s1);
  let elapsed = now_ms () -. start in
  Rdb_obs.Metrics.incr "plan.built";
  Rdb_obs.Metrics.incr ~by:!pairs "plan.dp_pairs";
  Rdb_obs.Metrics.observe "plan.ms" elapsed;
  ( best,
    {
      pairs_considered = !pairs;
      subsets_planned = Relset.Tbl.length best;
      plan_ms = elapsed;
    } )

let plan ?lint ?verify ?sensitivity ?resource ?space ?cost_params ~catalog
    ~estimator q =
  let best, stats = dp ?space ?cost_params ~catalog ~estimator q in
  match Relset.Tbl.find_opt best (Relset.full (Query.n_rels q)) with
  | Some p ->
    run_lint_hook ~lint ~catalog ~estimator q p;
    run_verify_hook ~verify ~catalog ~estimator q p;
    run_sensitivity_hook ~sensitivity ~catalog ~estimator q p;
    run_resource_hook ~resource ~catalog ~estimator q p;
    (p, stats)
  | None -> invalid_arg "Optimizer: no plan found for full relation set"

(* Rio-style robust DP: plans carry one cost per scenario; scenarios scale
   every k-relation join estimate by gamma^(k-1) for gamma in
   {1/u, 1, u}. Selection minimizes the worst-case cost. *)
let dp_robust ?space ?(cost_params = Cost_model.default) ~uncertainty ~catalog
    ~estimator (q : Query.t) =
  let cp = cost_params in
  let graph = Join_graph.make q in
  let n = Query.n_rels q in
  check_connected graph q;
  let space =
    match space with Some s -> s | None -> Search_space.build graph
  in
  let start = now_ms () in
  let gammas = [| 1.0 /. uncertainty; 1.0; uncertainty |] in
  let n_scen = Array.length gammas in
  (* per-scenario estimates of a subset; every subset reaching here has
     been estimated already, so these are memo hits *)
  let scenario_ests s =
    let k = Relset.cardinal s in
    Array.init n_scen (fun i ->
        Float.max 1.0
          (Estimator.card estimator s *. (gammas.(i) ** float_of_int (k - 1))))
  in
  let cx = context ~catalog graph q in
  (* best plan per subset, with its per-scenario cost vector *)
  let best : (Plan.t * float array) Relset.Tbl.t = Relset.Tbl.create 256 in
  for rel = 0 to n - 1 do
    let p = scan_plan ~cp ~catalog ~estimator q rel in
    Relset.Tbl.replace best (Relset.singleton rel)
      (p, Array.make n_scen (Plan.cost p))
  done;
  let worst costs = Array.fold_left Float.max neg_infinity costs in
  let pairs = ref 0 in
  Search_space.iter space (fun s1 s2 ->
      incr pairs;
      let su = Relset.union s1 s2 in
      let p1, c1 = Relset.Tbl.find best s1 and p2, c2 = Relset.Tbl.find best s2 in
      let point_est = Estimator.card estimator su in
      let est1 = scenario_ests s1 and est2 = scenario_ests s2 in
      let out = scenario_ests su in
      let consider ~outer ~inner ~outer_costs ~inner_costs ~o_rows ~i_rows ~so ~si =
        let edges = lazy (edges_between cx so si) in
        let offer algo algo_cost =
          let costs = Array.init n_scen algo_cost in
          let better =
            match Relset.Tbl.find_opt best su with
            | Some (_, current) -> worst costs < worst current
            | None -> true
          in
          if better then
            Relset.Tbl.replace best su
              ( Plan.Join
                  {
                    Plan.algo;
                    outer;
                    inner;
                    join_est = point_est;
                    join_cost = costs.(1);
                    join_edges = Lazy.force edges;
                  },
                costs )
        in
        offer Plan.Hash_join (fun i ->
            outer_costs.(i) +. inner_costs.(i)
            +. Cost_model.hash_join cp ~build:i_rows.(i) ~probe:o_rows.(i)
                 ~out:out.(i));
        offer Plan.Nested_loop (fun i ->
            outer_costs.(i) +. inner_costs.(i)
            +. Cost_model.nested_loop cp ~outer:o_rows.(i) ~inner:i_rows.(i)
                 ~out:out.(i));
        offer Plan.Merge_join (fun i ->
            outer_costs.(i) +. inner_costs.(i)
            +. Cost_model.merge_join cp ~outer:o_rows.(i) ~inner:i_rows.(i)
                 ~out:out.(i));
        match inl_inner_col cx so inner with
        | Some (inner_col, n_edges, inner_rel) ->
          let npreds = cx.npreds.(inner_rel) + n_edges - 1 in
          offer (Plan.Index_nl { inner_col }) (fun i ->
              outer_costs.(i)
              +. Cost_model.index_nested_loop cp ~outer:o_rows.(i) ~out:out.(i)
                   ~npreds)
        | None -> ()
      in
      consider ~outer:p1 ~inner:p2 ~outer_costs:c1 ~inner_costs:c2 ~o_rows:est1
        ~i_rows:est2 ~so:s1 ~si:s2;
      consider ~outer:p2 ~inner:p1 ~outer_costs:c2 ~inner_costs:c1 ~o_rows:est2
        ~i_rows:est1 ~so:s2 ~si:s1);
  let elapsed = now_ms () -. start in
  Rdb_obs.Metrics.incr "plan.built";
  Rdb_obs.Metrics.incr ~by:!pairs "plan.dp_pairs";
  Rdb_obs.Metrics.observe "plan.ms" elapsed;
  ( best,
    {
      pairs_considered = !pairs;
      subsets_planned = Relset.Tbl.length best;
      plan_ms = elapsed;
    } )

let plan_robust ?lint ?verify ?sensitivity ?resource ?space ?cost_params
    ~uncertainty ~catalog ~estimator q =
  let best, stats =
    dp_robust ?space ?cost_params ~uncertainty ~catalog ~estimator q
  in
  match Relset.Tbl.find_opt best (Relset.full (Query.n_rels q)) with
  | Some (p, _) ->
    run_lint_hook ~lint ~catalog ~estimator q p;
    run_verify_hook ~verify ~catalog ~estimator q p;
    run_sensitivity_hook ~sensitivity ~catalog ~estimator q p;
    run_resource_hook ~resource ~catalog ~estimator q p;
    (p, stats)
  | None -> invalid_arg "Optimizer: no robust plan found"

let best_cost_of_sets ?space ?cost_params ~catalog ~estimator q =
  let best, _ = dp ?space ?cost_params ~catalog ~estimator q in
  fun s -> Relset.Tbl.find_opt best s
