(* The reoptdb command-line interface.

     reoptdb queries                    list the workload
     reoptdb sql 16b                    print a query's SQL
     reoptdb explain 6d [--mode ...]    plan + EXPLAIN with true cardinalities
     reoptdb explain 6d --analyze       execute too: actual rows, Q-error,
                                        adaptive switches, re-opt trigger
     reoptdb run 6d [--reopt 32]        execute, optionally with re-optimization
     reoptdb experiment fig2 [...]      regenerate tables/figures of the paper
                                        (all, or micro for micro-benchmarks)
     reoptdb lint [--scale 0.1]         lint every workload query and plan
     reoptdb verify [--scale 0.1]       prove every re-opt rewrite equivalent
                                        and every plan within sound bounds
     reoptdb fragility [--json p.json]  interval-sensitivity sweep: which
                                        estimates each plan's optimality and
                                        re-opt trigger depend on
     reoptdb feedback [--json b.json]   LEO-style feedback sweep: learn true
                                        cardinalities, then measure naive vs
                                        fragility-gated corrections against
                                        default and perfect-(n)
     reoptdb serve --port 7878          long-running query service: SQL over
                                        a line-oriented socket, worker-domain
                                        pool, CQNF-keyed plan cache
     reoptdb bench-serve [--json ...]   closed-loop latency/QPS benchmark of
                                        the service on a warmed mixed JOB
                                        workload (p50/p95, hit rate)
     reoptdb racecheck [--json ...]     source-level concurrency lint of the
                                        repo's own .ml tree: guarded-by,
                                        lock-order cycles, domain captures
     reoptdb exnflow [--json ...]       source-level exception-flow lint:
                                        leak-on-raise, spawn-escape,
                                        designated-handler discipline
     reoptdb json-check report.json     strictly validate a JSON report

   Exit codes are uniform across the analysis commands (lint, verify,
   fragility, feedback, racecheck, exnflow, json-check): 0 clean, 1
   error-severity findings, 2 usage error.

   Set RDB_TRACE=stderr (or =path for JSON-lines) to trace every pipeline
   phase as nested timed spans. *)

open Cmdliner

module Session = Rdb_core.Session
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Executor = Rdb_exec.Executor
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger

let scale_arg =
  Arg.(value & opt float 0.3 & info [ "scale" ] ~docv:"FACTOR"
         ~doc:"Database scale factor (1.0 = default benchmark size).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Data generator seed.")

let mode_arg =
  let doc =
    "Estimation mode: 'default', 'perfect' or 'perfect-N' (true \
     cardinalities for joins of at most N relations), 'feedback' (serve \
     every remembered true cardinality from the feedback store) or \
     'feedback-gated' (suppress corrections the fragility analysis marks \
     as plan-flipping)."
  in
  Arg.(value & opt string "default" & info [ "mode" ] ~docv:"MODE" ~doc)

let parse_mode s =
  match String.lowercase_ascii s with
  | "default" -> Ok `Default
  | "perfect" -> Ok `Perfect_all
  | "feedback" -> Ok `Feedback
  | "feedback-gated" -> Ok `Feedback_gated
  | s ->
    (match String.index_opt s '-' with
     | Some i when String.sub s 0 i = "perfect" ->
       (try Ok (`Perfect (int_of_string (String.sub s (i + 1) (String.length s - i - 1))))
        with Failure _ -> Error ("bad mode " ^ s))
     | _ -> Error ("bad mode " ^ s))

let make_session ?feedback ~scale ~seed () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed ~scale () in
  let session = Session.create ?feedback catalog in
  Session.analyze session;
  (catalog, session)

let resolve_mode ?feedback prepared = function
  | `Default -> Estimator.Default
  | `Perfect n ->
    Oracle.ensure_up_to (Session.oracle prepared) n;
    Estimator.Perfect n
  | `Perfect_all ->
    let q = Session.query prepared in
    Oracle.ensure_up_to (Session.oracle prepared) (Rdb_query.Query.n_rels q);
    Estimator.Perfect_all
  | (`Feedback | `Feedback_gated) as m ->
    (match feedback with
     | Some fb ->
       Session.feedback_mode ~gated:(m = `Feedback_gated) prepared fb
     | None -> Estimator.Default)

(* --feedback PATH on explain/run: corrections learned by one invocation
   carry over to the next. The store is loaded before planning (silently
   starting empty when PATH does not exist yet) and saved back after the
   command ran; staleness epochs make entries recorded against different
   statistics drop out on lookup rather than mislead the planner. *)
let feedback_path_arg =
  Arg.(value & opt (some string) None & info [ "feedback" ] ~docv:"PATH"
         ~doc:"Persist the cardinality-feedback store at PATH: load \
               remembered true cardinalities before planning and save \
               newly observed ones back afterwards. Required context for \
               --mode feedback and --mode feedback-gated to have any \
               corrections to serve.")

let feedback_store_of = function
  | None -> Rdb_core.Feedback.create ()
  | Some path ->
    (match Rdb_core.Feedback.load path with
     | Some fb -> fb
     | None -> Rdb_core.Feedback.create ())

let feedback_store_save fb = function
  | None -> ()
  | Some path ->
    Rdb_core.Feedback.save fb path;
    Printf.eprintf "feedback store saved to %s (%d entries)\n%!" path
      (Rdb_core.Feedback.size fb)

(* Every --json report: one document and a newline. The channel is closed
   on every path out, raising or not. *)
let write_json ~what path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Rdb_obs.Json.to_string doc);
      output_char oc '\n';
      close_out oc);
  Printf.eprintf "%s written to %s\n%!" what path

(* The sweep reporter of lint and resources. [report ctx findings]
   collects; [print ()] prints each finding once, sorted by severity, then
   context, then text, so CI output diffs cleanly across runs, and returns
   the (errors, warnings) counts. Several hooks and configurations see the
   same artifact, so a finding is keyed by its context up to the first
   space (the query, not its config label) and printed under the first
   context that produced it. *)
let sweep_reporter () =
  let module Finding = Rdb_analysis.Finding in
  let collected = ref [] in
  let report ctx findings =
    List.iter (fun f -> collected := (ctx, f) :: !collected) findings
  in
  let print () =
    let seen = Hashtbl.create 256 in
    let fresh (ctx, f) =
      let base =
        match String.index_opt ctx ' ' with
        | Some i -> String.sub ctx 0 i
        | None -> ctx
      in
      let key = (base, Finding.to_string f) in
      if Hashtbl.mem seen key then false
      else (Hashtbl.add seen key (); true)
    in
    let order (ctx, (f : Finding.t)) =
      (Finding.rank f.Finding.severity, ctx, Finding.to_string f)
    in
    let sorted =
      List.filter fresh (List.rev !collected)
      |> List.stable_sort (fun a b -> compare (order a) (order b))
    in
    List.iter
      (fun (ctx, f) -> Printf.printf "%s: %s\n" ctx (Finding.to_string f))
      sorted;
    let count sev =
      List.length (List.filter (fun (_, f) -> f.Finding.severity = sev) sorted)
    in
    (count Finding.Error, count Finding.Warning)
  in
  (report, print)

(* ---- queries ---- *)

let cmd_queries =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Rdb_imdb.Job_queries.sql;
    0
  in
  Cmd.v (Cmd.info "queries" ~doc:"List the 113 workload queries.")
    Term.(const run $ const ())

(* ---- sql ---- *)

let query_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
         ~doc:"Workload query name, e.g. 6d or 16b.")

let cmd_sql =
  let run name =
    match Rdb_imdb.Job_queries.sql_of name with
    | Some sql -> print_endline sql; 0
    | None -> Printf.eprintf "unknown query %s\n" name; 2
  in
  Cmd.v (Cmd.info "sql" ~doc:"Print a workload query's SQL text.")
    Term.(const run $ query_pos)

(* ---- explain ---- *)

let pessimistic_arg =
  Arg.(value & flag & info [ "pessimistic" ]
         ~doc:"Clamp every cardinality estimate to the symbolic verifier's \
               sound [lo, hi] interval before costing. Changes plan choice \
               only, never query results.")

let cmd_explain =
  let analyze_arg =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"Execute the plan and annotate every operator with its \
                 actual row count, Q-error, adaptive switches, and the \
                 join the re-optimization trigger would materialize.")
  in
  let adaptive_arg =
    Arg.(value & flag & info [ "adaptive" ]
           ~doc:"With --analyze: execute with Cuttlefish-style runtime \
                 operator switching, so demotions show in the output.")
  in
  let trigger_arg =
    Arg.(value & opt float 32.0 & info [ "reopt" ] ~docv:"THRESHOLD"
           ~doc:"With --analyze: Q-error threshold of the trigger marker.")
  in
  let bounds_arg =
    Arg.(value & flag & info [ "bounds" ]
           ~doc:"Print the symbolic verifier's sound cardinality interval \
                 next to each operator's estimated (and actual) rows.")
  in
  let run name scale seed mode_str feedback_path analyze adaptive threshold
      pessimistic bounds =
    match parse_mode mode_str with
    | Error e -> prerr_endline e; 2
    | Ok mode ->
      let fb = feedback_store_of feedback_path in
      let catalog, session = make_session ~feedback:fb ~scale ~seed () in
      let q = Rdb_imdb.Job_queries.find catalog name in
      let prepared = Session.prepare session q in
      let mode = resolve_mode ~feedback:fb prepared mode in
      let plan, pstats, _ = Session.plan ~pessimistic prepared ~mode in
      Printf.printf "planning: %d csg-cmp pairs, %.2fms\n\n"
        pstats.Rdb_plan.Optimizer.pairs_considered
        pstats.Rdb_plan.Optimizer.plan_ms;
      if analyze then begin
        let res = Session.execute ~adaptive prepared plan in
        print_string
          (Rdb_core.Explain_analyze.render ~bounds
             ~trigger:(Trigger.create threshold) prepared plan res);
        List.iter
          (fun v -> print_endline ("  " ^ Value.to_string v))
          res.Executor.aggs
      end
      else begin
        let oracle = Session.oracle prepared in
        let notes =
          if not bounds then fun _ -> []
          else begin
            let ctx =
              Rdb_verify.Card_bound.create ~catalog
                ~stats:(Session.stats session) q
            in
            fun set ->
              let lo, hi = Rdb_verify.Card_bound.interval ctx set in
              [ Printf.sprintf "bounds=[%.0f, %.0f]" lo hi ]
          end
        in
        print_string
          (Rdb_plan.Explain.render
             ~actuals:(fun set -> Some (Oracle.true_card oracle set))
             ~notes q plan)
      end;
      feedback_store_save fb feedback_path;
      Rdb_obs.Trace.flush ();
      0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Plan a query and print EXPLAIN with true cardinalities; with \
          --analyze, execute it and print EXPLAIN ANALYZE (actual rows, \
          Q-error, work, adaptive switches, re-opt trigger); with --bounds, \
          show the verifier's sound cardinality interval per operator. With \
          --analyze and --feedback PATH, observed true cardinalities are \
          persisted for later feedback-mode planning.")
    Term.(const run $ query_pos $ scale_arg $ seed_arg $ mode_arg
          $ feedback_path_arg $ analyze_arg $ adaptive_arg $ trigger_arg
          $ pessimistic_arg $ bounds_arg)

(* ---- run ---- *)

let reopt_arg =
  Arg.(value & opt (some float) None & info [ "reopt" ] ~docv:"THRESHOLD"
         ~doc:"Enable re-optimization at the given Q-error threshold.")

let cmd_run =
  let run name scale seed mode_str feedback_path reopt pessimistic =
    match parse_mode mode_str with
    | Error e -> prerr_endline e; 2
    | Ok mode ->
      let fb = feedback_store_of feedback_path in
      let catalog, session = make_session ~feedback:fb ~scale ~seed () in
      let q = Rdb_imdb.Job_queries.find catalog name in
      let prepared = Session.prepare session q in
      let mode = resolve_mode ~feedback:fb prepared mode in
      (match reopt with
       | None ->
         let plan, pstats, _ = Session.plan ~pessimistic prepared ~mode in
         let res = Session.execute prepared plan in
         Printf.printf
           "plan %.2fms | exec %.2fms | %d rows into aggregates | work %d\n"
           pstats.Rdb_plan.Optimizer.plan_ms res.Executor.elapsed_ms
           res.Executor.out_rows res.Executor.work;
         List.iter (fun v -> print_endline ("  " ^ Value.to_string v)) res.Executor.aggs
       | Some threshold ->
         let outcome =
           Reopt.run ~initial:prepared session
             ~trigger:(Trigger.create threshold) ~mode q
         in
         Printf.printf
           "reopt steps %d | plan %.2fms | exec %.2fms (materializations included)\n"
           (List.length outcome.Reopt.steps)
           outcome.Reopt.total_plan_ms outcome.Reopt.total_exec_ms;
         List.iter
           (fun (s : Reopt.step) ->
             Printf.printf "  step: {%s} -> %s (%d rows, q-error %.0f)\n"
               (String.concat "," s.Reopt.materialized_aliases)
               s.Reopt.temp_name s.Reopt.temp_rows s.Reopt.trigger_q_error)
           outcome.Reopt.steps;
         List.iter
           (fun v -> print_endline ("  " ^ Value.to_string v))
           outcome.Reopt.final_exec.Executor.aggs);
      feedback_store_save fb feedback_path;
      0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a query, optionally with re-optimization. With --feedback \
          PATH, true cardinalities observed during execution (including \
          those paid for by re-optimization's materializations, re-keyed \
          to the original query) persist across invocations.")
    Term.(const run $ query_pos $ scale_arg $ seed_arg $ mode_arg
          $ feedback_path_arg $ reopt_arg $ pessimistic_arg)

(* ---- experiment ---- *)

(* bechamel micro-benchmarks of the engine's operators: [experiment micro] *)

let micro_tests () =
  let open Bechamel in
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.1 () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  let plan_of name mode =
    let q = Rdb_imdb.Job_queries.find catalog name in
    let prepared = Rdb_core.Session.prepare session q in
    let plan, _, _ = Rdb_core.Session.plan prepared ~mode in
    (q, prepared, plan)
  in
  let q6d, prep6d, plan6d = plan_of "6d" Rdb_card.Estimator.Default in
  let _q33, prep33, _ = plan_of "33a" Rdb_card.Estimator.Default in
  let graph33 =
    Rdb_query.Join_graph.make (Rdb_core.Session.query prep33)
  in
  let title = Catalog.table_exn catalog "title" in
  let years =
    match Table.column title 3 with
    | Column.Ints a -> a
    | Column.Strs _ -> assert false
  in
  let exec_plan prepared plan () =
    ignore (Rdb_core.Session.execute prepared plan)
  in
  [
    Test.make ~name:"exec/q6d-default-plan"
      (Staged.stage (exec_plan prep6d plan6d));
    Test.make ~name:"optimizer/dpccp-17rel"
      (Staged.stage (fun () ->
           ignore (Rdb_plan.Search_space.build graph33)));
    Test.make ~name:"optimizer/plan-q33a"
      (Staged.stage (fun () ->
           ignore
             (Rdb_core.Session.plan prep33 ~mode:Rdb_card.Estimator.Default)));
    Test.make ~name:"oracle/tree-card-q6d-full"
      (Staged.stage (fun () ->
           let oracle =
             Rdb_card.Oracle.create catalog q6d
           in
           ignore
             (Rdb_card.Oracle.true_card oracle
                (Rdb_util.Relset.full (Rdb_query.Query.n_rels q6d)))));
    Test.make ~name:"stats/analyze-title"
      (Staged.stage (fun () -> ignore (Rdb_stats.Analyze.table title)));
    Test.make ~name:"stats/histogram-years"
      (Staged.stage (fun () ->
           ignore (Rdb_stats.Histogram.build ~buckets:100 years)));
    Test.make ~name:"storage/hash-index-title-id"
      (Staged.stage (fun () -> ignore (Hash_index.build title ~col:0)));
    Test.make ~name:"reopt/full-loop-q6d"
      (Staged.stage (fun () ->
           ignore
             (Rdb_core.Reopt.run session
                ~trigger:(Rdb_core.Trigger.create 32.0)
                ~mode:Rdb_card.Estimator.Default q6d)));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "= micro-benchmarks (bechamel, ns/run via OLS) =";
  let tests = Test.make_grouped ~name:"micro" (micro_tests ()) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if ns >= 1_000_000.0 then
        Printf.printf "  %-40s %12.3f ms/run\n" name (ns /. 1_000_000.0)
      else Printf.printf "  %-40s %12.0f ns/run\n" name ns)
    (List.sort compare !rows)

let cmd_experiment =
  let module Experiments = Rdb_harness.Experiments in
  let module Metrics = Rdb_obs.Metrics in
  let module J = Rdb_obs.Json in
  let names_pos =
    let names = "all" :: "micro" :: Experiments.names in
    Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) []
         & info [] ~docv:"EXPERIMENT"
             ~doc:(Printf.sprintf
                     "Experiments to run, in order: %s; 'micro' runs the \
                      bechamel micro-benchmarks, 'all' (the default) every \
                      experiment and then micro."
                     (String.concat ", " Experiments.names)))
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Shard the experiments' (config, query) grids across N \
                 domains (0 = one per core). Deterministic measurements \
                 are identical to a sequential run.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:"Also write the metrics report — per-experiment engine \
                 counters (plans built, DP pairs, re-opt steps, work units, \
                 adaptive switches, …) plus run totals, comparable across \
                 commits — as JSON to PATH.")
  in
  let run names scale seed jobs json_path =
    let jobs = if jobs = 0 then Rdb_util.Pool.default_jobs () else jobs in
    let names =
      List.concat_map
        (function "all" -> Experiments.names @ [ "micro" ] | n -> [ n ])
        (if names = [] then [ "all" ] else names)
    in
    let lab =
      lazy
        (Printf.printf "building lab: scale=%g seed=%d jobs=%d ...\n%!" scale
           seed jobs;
         let t0 = Unix.gettimeofday () in
         let lab = Rdb_harness.Runner.create_lab ~seed ~scale () in
         Printf.printf "lab ready in %.1fs (113 queries bound)\n\n%!"
           (Unix.gettimeofday () -. t0);
         lab)
    in
    let experiment name =
      let t0 = Unix.gettimeofday () in
      let before = Metrics.snapshot () in
      (match name with
       | "micro" -> run_micro ()
       | "table3" -> print_endline (Experiments.table3 ())
       | "skew" -> print_endline (Experiments.skew_example ())
       | name -> print_endline (Experiments.run ~jobs (Lazy.force lab) name));
      let elapsed = Unix.gettimeofday () -. t0 in
      let deltas =
        Metrics.diff_counters ~after:(Metrics.snapshot ()) ~before
      in
      Printf.printf "[%s done in %.1fs]\n\n%!" name elapsed;
      J.Obj
        [ ("name", J.Str name);
          ("elapsed_s", J.Float elapsed);
          ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) deltas)) ]
    in
    try
      let reports = List.map experiment names in
      Option.iter
        (fun path ->
          write_json ~what:"metrics report" path
            (J.Obj
               [ ( "meta",
                   J.Obj
                     [ ("scale", J.Float scale);
                       ("seed", J.Int seed);
                       ("jobs", J.Int jobs) ] );
                 ("experiments", J.List reports);
                 ("totals", Metrics.to_json (Metrics.snapshot ())) ]))
        json_path;
      0
    with Invalid_argument e -> prerr_endline e; 1
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables/figures (see DESIGN.md for the \
             index) and the engine's micro-benchmarks.")
    Term.(const run $ names_pos $ scale_arg $ seed_arg $ jobs_arg $ json_arg)

(* ---- lint ---- *)

let cmd_lint =
  let module Finding = Rdb_analysis.Finding in
  let module Query_lint = Rdb_analysis.Query_lint in
  let module Plan_lint = Rdb_analysis.Plan_lint in
  let lint_scale_arg =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR"
           ~doc:"Database scale factor. The lint sweep executes every \
                 re-optimization materialization, so it defaults to a \
                 smaller database than the experiment commands.")
  in
  let threshold_arg =
    Arg.(value & opt float 32.0 & info [ "reopt" ] ~docv:"THRESHOLD"
           ~doc:"Q-error threshold of the re-optimization sweep.")
  in
  let perfect_arg =
    Arg.(value & opt int 4 & info [ "perfect" ] ~docv:"N"
           ~doc:"The perfect-(N) estimator configuration to sweep.")
  in
  let source_arg =
    Arg.(value & flag & info [ "source" ]
           ~doc:"Also run the source-level concurrency and exception-flow \
                 analyzers (racecheck, exnflow) over the repository's lib/ \
                 tree and merge their findings, with the same dedupe and \
                 stable sort.")
  in
  let run scale seed threshold perfect_n source =
    let catalog, session = make_session ~scale ~seed () in
    let queries = Rdb_imdb.Job_queries.all catalog in
    let n_plans = ref 0 and n_steps = ref 0 and n_capped = ref 0 in
    (* Query_lint runs standalone and inside every per-config plan check,
       so the reporter's dedupe folds its repeats. *)
    let report, print = sweep_reporter () in
    List.iter
      (fun (q : Rdb_query.Query.t) ->
        let name = q.Rdb_query.Query.name in
        report name (Query_lint.check ~catalog q);
        let prepared = Session.prepare session q in
        (* Planned configurations: lint each chosen plan against a fresh
           estimator query. *)
        List.iter
          (fun (label, mode) ->
            (match mode with
             | Estimator.Perfect n ->
               Oracle.ensure_up_to (Session.oracle prepared) n
             | _ -> ());
            match Session.plan prepared ~mode with
            | plan, _, est ->
              incr n_plans;
              report
                (Printf.sprintf "%s [%s]" name label)
                (Plan_lint.check ~catalog ~estimator:est q plan);
              (* Third finding source, on the default config only: the
                 plan-robustness analyzer, with a few corner replans to
                 surface joins whose estimate the plan choice hinges on. *)
              if mode = Estimator.Default then begin
                report
                  (Printf.sprintf "%s [%s]" name label)
                  (Rdb_analysis.Sensitivity.check ~threshold
                     ~corner_replans:true ~corner_limit:4
                     ~space:(Session.space prepared) ~catalog ~estimator:est
                     q plan);
                (* Fourth finding source: the static resource certifier —
                   well-formedness of the sound memory/work envelope (the
                   full certified-vs-observed sweep is `reoptdb
                   resources`). *)
                let cert = Session.certify ~estimator:est prepared plan in
                report
                  (Printf.sprintf "%s [%s]" name label)
                  (Rdb_analysis.Resource.findings q cert)
              end
            (* With RDB_LINT=1 in the environment the in-loop hook raises
               before we can report; keep sweeping the other configs. *)
            | exception Rdb_analysis.Debug.Lint_failed findings ->
              report (Printf.sprintf "%s [%s]" name label) findings)
          [ ("default", Estimator.Default);
            (Printf.sprintf "perfect-%d" perfect_n,
             Estimator.Perfect perfect_n) ];
        (* Re-optimization sweep: with ~lint:true every intermediate plan
           and every rewritten query is invariant-checked in the loop
           itself (raising on error findings); on success, re-lint the
           rewrite steps here to surface warning-severity findings too. *)
        (match
           Reopt.run ~lint:true ~work_budget:60_000_000 ~deadline_ms:4000.0
             ~cleanup:false ~initial:prepared session
             ~trigger:(Trigger.create threshold) ~mode:Estimator.Default q
         with
         | outcome ->
           incr n_plans;
           List.iter
             (fun (s : Reopt.step) ->
               incr n_steps;
               report
                 (Printf.sprintf "%s [reopt step %s]" name s.Reopt.temp_name)
                 (Query_lint.check ~catalog s.Reopt.query_after))
             outcome.Reopt.steps;
           report
             (Printf.sprintf "%s [reopt final]" name)
             (Plan_lint.check ~catalog outcome.Reopt.final_query
                outcome.Reopt.final_plan);
           List.iter
             (fun (s : Reopt.step) ->
               Catalog.drop_table catalog s.Reopt.temp_name;
               Rdb_stats.Db_stats.drop (Session.stats session)
                 ~table:s.Reopt.temp_name)
             outcome.Reopt.steps
         | exception Executor.Work_budget_exceeded _ -> incr n_capped
         | exception Rdb_analysis.Debug.Lint_failed findings ->
           report (Printf.sprintf "%s [reopt]" name) findings))
      queries;
    (* Fourth finding source, opt-in: the source-level concurrency and
       exception-flow analyzers over the repository's own .ml tree, one
       report over one parse. Context is the space-free "file:line" so the
       dedupe key stays per-site. *)
    let n_source_files = ref 0 in
    if source then begin
      let module Srclint = Rdb_srclint.Srclint in
      match Srclint.find_default_root () with
      | None ->
        report "source"
          [ Finding.warning ~code:"src-no-root"
              "cannot locate the repository's lib/ tree for --source" ]
      | Some root ->
        let sr = Srclint.analyze_tree Srclint.both ~root in
        n_source_files := List.length sr.Srclint.files;
        List.iter
          (fun (i : Srclint.item) ->
            report (Printf.sprintf "%s:%d" i.file i.line) [ i.finding ])
          sr.Srclint.items
    end;
    let n_errors, n_warnings = print () in
    Printf.printf
      "lint: %d queries, %d plans, %d rewrite steps%s checked (%d runaway \
       cells capped); %d errors, %d warnings\n"
      (List.length queries) !n_plans !n_steps
      (if source then Printf.sprintf ", %d source files" !n_source_files
       else "")
      !n_capped n_errors n_warnings;
    if n_errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Sweep the whole workload through the default, perfect-(n) and \
          re-optimization configurations and report static-analysis \
          findings on every query, plan and rewrite step — including the \
          plan-robustness analyzer's interval-sensitivity findings on the \
          default config. Output is deduplicated and sorted by severity \
          then query for stable CI diffs. With --source, the source-level \
          concurrency and exception-flow analyzers' findings on the \
          repository's own lib/ tree are merged in. Exits non-zero on \
          error-severity findings.")
    Term.(const run $ lint_scale_arg $ seed_arg $ threshold_arg $ perfect_arg
          $ source_arg)

(* ---- resources ---- *)

let cmd_resources =
  let module Finding = Rdb_analysis.Finding in
  let module Resource = Rdb_analysis.Resource in
  let module Interval = Rdb_cost.Interval in
  let module J = Rdb_obs.Json in
  let res_scale_arg =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR"
           ~doc:"Database scale factor. The sweep executes every query to \
                 hold the certificates against observed peaks, so it \
                 defaults to the lint-sized database.")
  in
  let threshold_arg =
    Arg.(value & opt float 32.0 & info [ "reopt" ] ~docv:"THRESHOLD"
           ~doc:"Q-error threshold of the certified re-opt transition \
                 simulation (thrashing and useless-materialization \
                 analysis).")
  in
  let budget_arg =
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SLOTS"
           ~doc:"Report an error finding for every query whose certified \
                 peak memory exceeds SLOTS row-slots — the admission \
                 decision `reoptdb serve --mem-budget` would make, as an \
                 offline sweep.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:"Write the sweep report — wall time plus every query's \
                 certified intervals and observed peak/work — as JSON to \
                 PATH (the BENCH_resources.json artifact).")
  in
  let run scale seed threshold budget json_path =
    let catalog, session = make_session ~scale ~seed () in
    let queries = Rdb_imdb.Job_queries.all catalog in
    let t0 = Unix.gettimeofday () in
    let report, print = sweep_reporter () in
    let n_capped = ref 0 and n_thrash = ref 0 and rows = ref [] in
    (* Tolerance for holding integer executor counters against float
       interval endpoints. *)
    let slack = 0.5 in
    List.iter
      (fun (q : Rdb_query.Query.t) ->
        let name = q.Rdb_query.Query.name in
        let prepared = Session.prepare session q in
        let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
        let cert =
          Session.certify ~transitions:true ~threshold ~estimator prepared plan
        in
        report name (Resource.findings ?budget q cert);
        (match cert.Resource.cert_reopt with
         | Some ro when ro.Resource.ro_thrashing <> None -> incr n_thrash
         | Some _ | None -> ());
        (* Dynamic validation: the certificate must dominate a real
           (non-adaptive) execution. A capped run still observed a prefix
           of the full execution, so hi-bounds apply; lo-bounds only
           constrain complete runs. *)
        let unsound what v (i : Interval.t) ~capped =
          let out = ref [] in
          if v > i.Interval.hi +. slack then
            out :=
              [ Finding.error ~code:"resource-cert-unsound"
                  (Printf.sprintf
                     "observed %s %.0f exceeds certified hi-bound %.1f" what v
                     i.Interval.hi) ];
          if (not capped) && v < i.Interval.lo -. slack then
            out :=
              Finding.error ~code:"resource-cert-unsound"
                (Printf.sprintf
                   "observed %s %.0f undercuts certified lo-bound %.1f" what v
                   i.Interval.lo)
              :: !out;
          !out
        in
        let observed =
          match
            Session.execute ~work_budget:60_000_000 ~deadline_ms:4000.0
              prepared plan
          with
          | res ->
            let w = float_of_int res.Executor.work
            and p = float_of_int res.Executor.peak_rows
            and o = float_of_int res.Executor.out_rows in
            report name (unsound "work" w cert.Resource.cert_work ~capped:false);
            report name
              (unsound "peak memory" p cert.Resource.cert_mem ~capped:false);
            report name
              (unsound "output rows" o cert.Resource.cert_out ~capped:false);
            Some (res.Executor.peak_rows, res.Executor.work, false)
          | exception Executor.Work_budget_exceeded { spent; _ } ->
            incr n_capped;
            report name
              (unsound "work" (float_of_int spent) cert.Resource.cert_work
                 ~capped:true);
            Some (0, spent, true)
        in
        let iv_doc (i : Interval.t) =
          J.Obj [ ("lo", J.Float i.Interval.lo); ("hi", J.Float i.Interval.hi) ]
        in
        rows :=
          J.Obj
            ([ ("query", J.Str name);
               ("shape", J.Str cert.Resource.cert_shape);
               ("mem", iv_doc cert.Resource.cert_mem);
               ("work", iv_doc cert.Resource.cert_work);
               ("out", iv_doc cert.Resource.cert_out);
               ("replans_hi", J.Int cert.Resource.cert_replans_hi) ]
             @ (match cert.Resource.cert_reopt with
                | None -> []
                | Some ro ->
                  [ ("predicted_replans", J.Int ro.Resource.ro_predicted_replans);
                    ("thrashing", J.Bool (ro.Resource.ro_thrashing <> None)) ])
             @
             match observed with
             | None -> []
             | Some (peak, work, capped) ->
               [ ("observed_peak", J.Int peak);
                 ("observed_work", J.Int work);
                 ("capped", J.Bool capped) ])
          :: !rows)
      queries;
    let n_errors, n_warnings = print () in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Printf.printf
      "resources: %d queries certified and executed (%d capped, %d \
       simulated thrashers) in %.0fms; %d errors, %d warnings\n"
      (List.length queries) !n_capped !n_thrash wall_ms n_errors n_warnings;
    (match json_path with
     | None -> ()
     | Some path ->
       let doc =
         J.Obj
           [ ("report", J.Str "resources");
             ("scale", J.Float scale);
             ("seed", J.Int seed);
             ("threshold", J.Float threshold);
             ( "budget",
               match budget with Some b -> J.Float b | None -> J.Null );
             ("wall_ms", J.Float wall_ms);
             ("errors", J.Int n_errors);
             ("warnings", J.Int n_warnings);
             ("queries", J.List (List.rev !rows)) ]
       in
       write_json ~what:"resources report" path doc);
    if n_errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "resources"
       ~doc:
         "Certify every workload query's default plan — sound \
          [lo, hi] bounds on peak resident memory (row-slots), total \
          executor work and output rows, a structural worst-case replan \
          count, and a simulated re-opt transition graph with thrashing \
          and useless-materialization detection — then execute it and \
          hold the certificate against the observed counters. Exits 1 on \
          any unsound certificate, malformed interval, or (with --budget) \
          over-budget query; 0 otherwise.")
    Term.(const run $ res_scale_arg $ seed_arg $ threshold_arg $ budget_arg
          $ json_arg)

(* ---- verify ---- *)

let cmd_verify =
  let module Finding = Rdb_analysis.Finding in
  let module Card_bound = Rdb_verify.Card_bound in
  let module Equiv = Rdb_verify.Equiv in
  let verify_scale_arg =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR"
           ~doc:"Database scale factor. Like lint, the verify sweep \
                 executes every re-optimization materialization, so it \
                 defaults to a smaller database.")
  in
  let threshold_arg =
    Arg.(value & opt float 32.0 & info [ "reopt" ] ~docv:"THRESHOLD"
           ~doc:"Q-error threshold of the re-optimization sweep.")
  in
  let perfect_arg =
    Arg.(value & opt int 4 & info [ "perfect" ] ~docv:"N"
           ~doc:"The perfect-(N) estimator configuration to sweep.")
  in
  let gen_arg =
    Arg.(value & opt int 20 & info [ "gen" ] ~docv:"N"
           ~doc:"Also bound-check the plans of N generated queries (random \
                 FK-joins with sampled predicates), seeded by --seed.")
  in
  let run scale seed threshold perfect_n n_gen =
    let catalog, session = make_session ~scale ~seed () in
    let stats = Session.stats session in
    let queries = Rdb_imdb.Job_queries.all catalog in
    (* The header logs the seed: it drives both the data generator and the
       generated-query sweep, so a failure line below is reproducible by
       rerunning with the same --seed. *)
    Printf.printf
      "verify: seed=%d scale=%g reopt-threshold=%g perfect=%d gen=%d\n" seed
      scale threshold perfect_n n_gen;
    let n_errors = ref 0 and n_warnings = ref 0 in
    let n_plans = ref 0 and n_proved = ref 0 and n_capped = ref 0 in
    let report ctx findings =
      List.iter
        (fun (f : Finding.t) ->
          (match f.Finding.severity with
           | Finding.Error -> incr n_errors
           | Finding.Warning -> incr n_warnings
           | Finding.Info -> ());
          if f.Finding.severity <> Finding.Info then
            Printf.printf "%s: %s\n" ctx (Finding.to_string f))
        findings;
      n_proved := !n_proved
        + List.length (Finding.by_code "rewrite-proved" findings)
    in
    (* The generated data must actually satisfy the schema's declared
       keys/FKs — they are what make the bounds sound. Checked once. *)
    report "constraints" (Card_bound.check_constraints catalog);
    List.iter
      (fun (q : Rdb_query.Query.t) ->
        let name = q.Rdb_query.Query.name in
        let prepared = Session.prepare session q in
        let bounds = Card_bound.create ~catalog ~stats q in
        (* Bound-check the chosen plan of each estimator configuration;
           the bounds depend only on data + constraints, so one context
           serves all three. *)
        List.iter
          (fun (label, mode, pessimistic) ->
            (match mode with
             | Estimator.Perfect n ->
               Oracle.ensure_up_to (Session.oracle prepared) n
             | _ -> ());
            let plan, _, _ = Session.plan ~pessimistic prepared ~mode in
            incr n_plans;
            report
              (Printf.sprintf "%s [%s]" name label)
              (Card_bound.check_plan bounds plan))
          [ ("default", Estimator.Default, false);
            (Printf.sprintf "perfect-%d" perfect_n,
             Estimator.Perfect perfect_n, false);
            ("pessimistic", Estimator.Default, true) ];
        (* Re-optimization sweep: prove every rewrite step equivalent to
           its pre-step query, and bound-check the final plan against the
           final query (temp tables still in the catalog). *)
        (match
           Reopt.run ~work_budget:60_000_000 ~deadline_ms:4000.0
             ~cleanup:false ~initial:prepared session
             ~trigger:(Trigger.create threshold) ~mode:Estimator.Default q
         with
         | outcome ->
           let q_prev = ref q in
           List.iter
             (fun (s : Reopt.step) ->
               let temp_cols =
                 Reopt.needed_cols !q_prev s.Reopt.materialized_set
               in
               report
                 (Printf.sprintf "%s [reopt step %s]" name s.Reopt.temp_name)
                 (Equiv.check_step ~catalog ~original:!q_prev
                    ~set:s.Reopt.materialized_set ~temp_cols
                    ~temp_name:s.Reopt.temp_name s.Reopt.query_after);
               q_prev := s.Reopt.query_after)
             outcome.Reopt.steps;
           (if outcome.Reopt.steps <> [] then begin
              let fbounds =
                Card_bound.create ~catalog ~stats outcome.Reopt.final_query
              in
              incr n_plans;
              report
                (Printf.sprintf "%s [reopt final]" name)
                (Card_bound.check_plan fbounds outcome.Reopt.final_plan)
            end);
           List.iter
             (fun (s : Reopt.step) ->
               Catalog.drop_table catalog s.Reopt.temp_name;
               Rdb_stats.Db_stats.drop stats ~table:s.Reopt.temp_name)
             outcome.Reopt.steps
         | exception Executor.Work_budget_exceeded _ -> incr n_capped
         | exception Rdb_verify.Debug.Verify_failed findings ->
           report (Printf.sprintf "%s [reopt]" name) findings
         | exception Rdb_analysis.Debug.Lint_failed findings ->
           report (Printf.sprintf "%s [reopt]" name) findings))
      queries;
    (* Generated-query sweep: the workload exercises 113 fixed shapes; the
       seeded generator adds fresh FK-join shapes and predicate constants,
       all bound-checked against the same sound intervals. *)
    (if n_gen > 0 then begin
       let gen = Rdb_verify.Query_gen.create ~catalog in
       let prng = Rdb_util.Prng.create seed in
       for i = 1 to n_gen do
         let q =
           Rdb_verify.Query_gen.gen gen prng
             ~name:(Printf.sprintf "gen%d" i)
         in
         let prepared = Session.prepare session q in
         let bounds = Card_bound.create ~catalog ~stats q in
         let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
         incr n_plans;
         report
           (Printf.sprintf "%s [default]" q.Rdb_query.Query.name)
           (Card_bound.check_plan bounds plan)
       done
     end);
    Printf.printf
      "verify: %d workload + %d generated queries, %d plans bound-checked, \
       %d rewrite steps proved equivalent (%d runaway cells capped); %d \
       errors, %d warnings\n"
      (List.length queries) n_gen !n_plans !n_proved !n_capped !n_errors
      !n_warnings;
    if !n_errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Sweep the whole workload through the symbolic plan verifier: \
          validate the declared key/FK constraints against the data, check \
          every chosen plan's estimates against sound cardinality bounds \
          (default, perfect-(n) and pessimistic configurations), and prove \
          every re-optimization rewrite step equivalent to its pre-step \
          query. A seeded generated-query sweep (--gen, --seed) adds fresh \
          join shapes beyond the fixed workload; the report header logs the \
          seed. Exits non-zero on error-severity findings.")
    Term.(const run $ verify_scale_arg $ seed_arg $ threshold_arg
          $ perfect_arg $ gen_arg)

(* ---- fragility ---- *)

let cmd_fragility =
  let module Sensitivity = Rdb_analysis.Sensitivity in
  let module Card_bound = Rdb_verify.Card_bound in
  let module J = Rdb_obs.Json in
  let thresholds = [ 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ] in
  let frag_scale_arg =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR"
           ~doc:"Database scale factor. The sweep never executes queries; \
                 scale only affects the statistics the estimates come from.")
  in
  let envelope_arg =
    Arg.(value & opt float 64.0 & info [ "envelope" ] ~docv:"Q"
           ~doc:"Q-error envelope factor: each estimate's true value is \
                 assumed to lie in [est/Q, est*Q], further intersected with \
                 the symbolic verifier's sound bounds unless --no-bounds.")
  in
  let no_bounds_arg =
    Arg.(value & flag & info [ "no-bounds" ]
           ~doc:"Do not intersect the envelope with the verifier's sound \
                 cardinality bounds.")
  in
  let corner_limit_arg =
    Arg.(value & opt int 0 & info [ "corner-limit" ] ~docv:"N"
           ~doc:"Corner-replan at most the N joins with the widest \
                 envelopes per query (each costs two optimizer runs); 0 \
                 replans every join.")
  in
  let queries_arg =
    Arg.(value & opt (some string) None & info [ "queries" ] ~docv:"LIST"
           ~doc:"Comma-separated query names to sweep (default: all 113).")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:"Write the full per-query fragility report as JSON to PATH.")
  in
  let run scale seed env_factor no_bounds corner_limit queries_filter
      json_path =
    let catalog, session = make_session ~scale ~seed () in
    let queries = Rdb_imdb.Job_queries.all catalog in
    let queries =
      match queries_filter with
      | None -> queries
      | Some list ->
        let wanted = String.split_on_char ',' list in
        List.filter
          (fun (q : Rdb_query.Query.t) ->
            List.mem q.Rdb_query.Query.name wanted)
          queries
    in
    let corner_limit = if corner_limit <= 0 then max_int else corner_limit in
    Printf.printf
      "fragility: seed=%d scale=%g envelope=%g bounds=%b queries=%d \
       thresholds={%s}\n"
      seed scale env_factor (not no_bounds) (List.length queries)
      (String.concat ","
         (List.map (fun t -> Printf.sprintf "%g" t) thresholds));
    (* Per (threshold, metric) totals, accumulated query by query. *)
    let n_finding_errors = ref 0 in
    let tally = Hashtbl.create 16 in
    let bump t key =
      let k = (t, key) in
      Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
    in
    let query_docs =
      List.map
        (fun (q : Rdb_query.Query.t) ->
          let name = q.Rdb_query.Query.name in
          let prepared = Session.prepare session q in
          let plan, _, est = Session.plan prepared ~mode:Estimator.Default in
          let envelope =
            let q_env = Sensitivity.q_envelope env_factor in
            if no_bounds then q_env
            else begin
              let ctx =
                Card_bound.create ~catalog ~stats:(Session.stats session) q
              in
              Sensitivity.intersect q_env
                (Sensitivity.of_intervals (Card_bound.interval ctx))
            end
          in
          (* One interval interpretation + one set of corner replans per
             query: the envelope is fixed, only the trigger threshold is
             swept, so flips are classified per threshold afterwards. *)
          let report =
            Sensitivity.analyze ~envelope ~threshold:(List.hd thresholds)
              ~corner_replans:true ~corner_limit
              ~space:(Session.space prepared) ~catalog ~estimator:est q plan
          in
          (* uniform exit-code contract: error-severity findings (interval
             cost-model mismatches) make the sweep exit 1 like lint/verify *)
          n_finding_errors :=
            !n_finding_errors
            + List.length
                (Rdb_analysis.Finding.errors (Sensitivity.findings q report));
          let flips =
            List.filter
              (fun (f : Sensitivity.fragility) -> f.Sensitivity.frag_flips <> None)
              report.Sensitivity.fragilities
          in
          List.iter
            (fun (f : Sensitivity.fragility) ->
              match f.Sensitivity.frag_flips with
              | Some (corner, shape) ->
                Printf.printf
                  "%s: flip {%s} est %.0f -> %.0f changes plan to %s (worst \
                   q-error %.1f)\n"
                  name
                  (String.concat "," f.Sensitivity.frag_aliases)
                  f.Sensitivity.frag_est corner shape
                  f.Sensitivity.frag_q_error
              | None -> ())
            flips;
          let by_threshold =
            List.map
              (fun t ->
                let predicted =
                  Sensitivity.predict_trigger ~envelope ~threshold:t q plan
                in
                let fragile =
                  List.filter
                    (fun (f : Sensitivity.fragility) ->
                      f.Sensitivity.frag_q_error >= t)
                    flips
                and blind =
                  List.filter
                    (fun (f : Sensitivity.fragility) ->
                      f.Sensitivity.frag_q_error < t)
                    flips
                in
                let robust = predicted = None && flips = [] in
                (match predicted with
                 | Some p ->
                   bump t "predicted";
                   if p.Sensitivity.pred_certain then bump t "certain"
                 | None -> ());
                if fragile <> [] then bump t "fragile";
                if blind <> [] then bump t "blind";
                if robust then bump t "robust";
                J.Obj
                  [ ("threshold", J.Float t);
                    ( "predicted_trigger",
                      match predicted with
                      | None -> J.Null
                      | Some p ->
                        J.Str
                          (String.concat "," p.Sensitivity.pred_aliases) );
                    ( "trigger_certain",
                      J.Bool
                        (match predicted with
                         | Some p -> p.Sensitivity.pred_certain
                         | None -> false) );
                    ("fragile_joins", J.Int (List.length fragile));
                    ("reopt_blind_spots", J.Int (List.length blind));
                    ("robust", J.Bool robust) ])
              thresholds
          in
          J.Obj
            [ ("query", J.Str name);
              ("joins", J.Int (Rdb_plan.Plan.n_joins plan));
              ("shape", J.Str report.Sensitivity.plan_shape);
              ( "root_cost",
                J.Obj
                  [ ("lo", J.Float report.Sensitivity.root_cost.Rdb_cost.Interval.lo);
                    ("hi", J.Float report.Sensitivity.root_cost.Rdb_cost.Interval.hi) ] );
              ("plan_flips", J.Int (List.length flips));
              ("by_threshold", J.List by_threshold) ])
        queries
    in
    let count t key = Option.value ~default:0 (Hashtbl.find_opt tally (t, key)) in
    List.iter
      (fun t ->
        Printf.printf
          "threshold %3g: trigger predicted %d (certain %d) | fragile %d | \
           re-opt blind spots %d | robust %d of %d\n"
          t (count t "predicted") (count t "certain") (count t "fragile")
          (count t "blind") (count t "robust") (List.length queries))
      thresholds;
    (match json_path with
     | None -> ()
     | Some path ->
       let doc =
         J.Obj
           [ ("report", J.Str "fragility");
             ("scale", J.Float scale);
             ("seed", J.Int seed);
             ("envelope", J.Float env_factor);
             ("bounds", J.Bool (not no_bounds));
             ("thresholds", J.List (List.map (fun t -> J.Float t) thresholds));
             ("queries", J.List query_docs) ]
       in
       write_json ~what:"fragility report" path doc);
    if !n_finding_errors > 0 then begin
      Printf.printf "fragility: %d error findings\n" !n_finding_errors;
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "fragility"
       ~doc:
         "Static plan-robustness sweep: propagate cardinality intervals \
          through the cost model for every workload query, predict which \
          join would trip the re-optimizer at each threshold in \
          {2,4,8,16,32,64}, and corner-replan each join's envelope to find \
          the estimates the DP-optimal plan actually depends on. Never \
          executes a query.")
    Term.(const run $ frag_scale_arg $ seed_arg $ envelope_arg
          $ no_bounds_arg $ corner_limit_arg $ queries_arg $ json_arg)

(* ---- feedback ---- *)

let cmd_feedback =
  let module Runner = Rdb_harness.Runner in
  let module FS = Rdb_harness.Feedback_sweep in
  let module J = Rdb_obs.Json in
  let fb_scale_arg =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR"
           ~doc:"Database scale factor of the sweep's lab.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Shard the learning and measurement grids across N domains \
                 (0 = one per core). Deterministic measurement fields are \
                 identical to a sequential run.")
  in
  let perfect_arg =
    Arg.(value & opt int 4 & info [ "perfect" ] ~docv:"N"
           ~doc:"Size of the perfect-(N) yardstick configuration.")
  in
  let reopt_learn_arg =
    Arg.(value & opt float 32.0 & info [ "reopt-learn" ] ~docv:"THRESHOLD"
           ~doc:"Q-error trigger of the re-optimizing learning pass whose \
                 materializations pay for true cardinalities.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:"Write the full sweep report as JSON to PATH (the \
                 BENCH_feedback.json artifact).")
  in
  let measurement_doc (m : Runner.measurement) =
    J.Obj
      [ ("work", J.Int m.Runner.m_work);
        ("capped", J.Bool m.Runner.m_capped);
        ("steps", J.Int m.Runner.m_steps);
        ("plan_ms", J.Float m.Runner.m_plan_ms);
        ("exec_ms", J.Float m.Runner.m_exec_ms) ]
  in
  let delta_doc (q, ratio) =
    J.Obj [ ("query", J.Str q); ("work_ratio", J.Float ratio) ]
  in
  let run scale seed jobs perfect_n reopt_learn json_path =
    let jobs = if jobs = 0 then Rdb_util.Pool.default_jobs () else jobs in
    Printf.printf
      "feedback: seed=%d scale=%g jobs=%d perfect=%d reopt-learn=%g\n%!"
      seed scale jobs perfect_n reopt_learn;
    let lab = Runner.create_lab ~seed ~scale () in
    let r = FS.run ~jobs ~perfect_n ~reopt_learn lab in
    Printf.printf
      "learned %d corrections (default pass + re-opt pass at threshold %g), \
       store frozen\n"
      r.FS.fr_store_size r.FS.fr_reopt_learn;
    let total get =
      List.fold_left (fun acc row -> acc + (get row).Runner.m_work) 0
        r.FS.fr_rows
    and capped get =
      List.fold_left
        (fun acc row -> if (get row).Runner.m_capped then acc + 1 else acc)
        0 r.FS.fr_rows
    in
    let d_work = total (fun row -> row.FS.fs_default)
    and n_work = total (fun row -> row.FS.fs_naive)
    and g_work = total (fun row -> row.FS.fs_gated)
    and p_work = total (fun row -> row.FS.fs_perfect) in
    let d_capped = capped (fun row -> row.FS.fs_default)
    and n_capped = capped (fun row -> row.FS.fs_naive)
    and g_capped = capped (fun row -> row.FS.fs_gated)
    and p_capped = capped (fun row -> row.FS.fs_perfect) in
    Printf.printf "workload work (%d queries, capped cells in parens):\n"
      (List.length r.FS.fr_rows);
    Printf.printf "  default          %12d (%d)\n" d_work d_capped;
    Printf.printf "  feedback-naive   %12d (%d)\n" n_work n_capped;
    Printf.printf "  feedback-gated   %12d (%d)\n" g_work g_capped;
    Printf.printf "  perfect-(%d)      %12d (%d)\n" perfect_n p_work p_capped;
    let show label deltas =
      Printf.printf "%s: %d\n" label (List.length deltas);
      List.iter
        (fun (q, ratio) -> Printf.printf "  %-4s %.2fx default's work\n" q ratio)
        deltas
    in
    show "naive regressions (corrections made the plan worse)"
      r.FS.fr_naive_regressions;
    show "naive improvements" r.FS.fr_naive_improvements;
    show "gated regressions (must be empty)" r.FS.fr_gated_regressions;
    show "gated improvements" r.FS.fr_gated_improvements;
    Printf.printf
      "planning: dp pairs default=%d naive=%d gated=%d | store probes %d \
       (bound %d)\n"
      r.FS.fr_default_pairs r.FS.fr_naive_pairs r.FS.fr_gated_pairs
      r.FS.fr_naive_lookups r.FS.fr_lookup_bound;
    (* The exit-code contract: planning-work invariants (enumeration is
       estimate-independent; lookups are demand-driven) plus the paper's
       §IV-E/§V shape — naive corrections hurt at least one query, gated
       corrections never materially hurt any. *)
    let pairs_ok =
      r.FS.fr_naive_pairs = r.FS.fr_default_pairs
      && r.FS.fr_gated_pairs = r.FS.fr_default_pairs
    in
    let lookups_ok = r.FS.fr_naive_lookups <= r.FS.fr_lookup_bound in
    let gated_ok = r.FS.fr_gated_regressions = [] in
    let naive_hurts = r.FS.fr_naive_regressions <> [] in
    let check name ok detail =
      Printf.printf "check %-32s %s%s\n" name (if ok then "ok" else "FAIL")
        (if detail = "" then "" else " (" ^ detail ^ ")")
    in
    check "dp-pairs-identical" pairs_ok
      (Printf.sprintf "%d/%d/%d" r.FS.fr_default_pairs r.FS.fr_naive_pairs
         r.FS.fr_gated_pairs);
    check "lookups-within-demand-bound" lookups_ok
      (Printf.sprintf "%d <= %d" r.FS.fr_naive_lookups r.FS.fr_lookup_bound);
    check "gated-never-materially-worse" gated_ok
      (Printf.sprintf "%d regressions" (List.length r.FS.fr_gated_regressions));
    check "naive-corrections-hurt-somewhere" naive_hurts
      (Printf.sprintf "%d regressions" (List.length r.FS.fr_naive_regressions));
    (match json_path with
     | None -> ()
     | Some path ->
       let doc =
         J.Obj
           [ ("report", J.Str "feedback");
             ("scale", J.Float scale);
             ("seed", J.Int seed);
             ("perfect_n", J.Int r.FS.fr_perfect_n);
             ("reopt_learn", J.Float r.FS.fr_reopt_learn);
             ("store_size", J.Int r.FS.fr_store_size);
             ( "planning",
               J.Obj
                 [ ("default_pairs", J.Int r.FS.fr_default_pairs);
                   ("naive_pairs", J.Int r.FS.fr_naive_pairs);
                   ("gated_pairs", J.Int r.FS.fr_gated_pairs);
                   ("naive_lookups", J.Int r.FS.fr_naive_lookups);
                   ("lookup_bound", J.Int r.FS.fr_lookup_bound) ] );
             ( "totals",
               J.Obj
                 [ ("default_work", J.Int d_work);
                   ("naive_work", J.Int n_work);
                   ("gated_work", J.Int g_work);
                   ("perfect_work", J.Int p_work);
                   ("default_capped", J.Int d_capped);
                   ("naive_capped", J.Int n_capped);
                   ("gated_capped", J.Int g_capped);
                   ("perfect_capped", J.Int p_capped) ] );
             ( "naive_regressions",
               J.List (List.map delta_doc r.FS.fr_naive_regressions) );
             ( "naive_improvements",
               J.List (List.map delta_doc r.FS.fr_naive_improvements) );
             ( "gated_regressions",
               J.List (List.map delta_doc r.FS.fr_gated_regressions) );
             ( "gated_improvements",
               J.List (List.map delta_doc r.FS.fr_gated_improvements) );
             ( "checks",
               J.Obj
                 [ ("dp_pairs_identical", J.Bool pairs_ok);
                   ("lookups_within_demand_bound", J.Bool lookups_ok);
                   ("gated_never_materially_worse", J.Bool gated_ok);
                   ("naive_corrections_hurt_somewhere", J.Bool naive_hurts) ] );
             ( "queries",
               J.List
                 (List.map
                    (fun (row : FS.row) ->
                      J.Obj
                        [ ("query", J.Str row.FS.fs_query);
                          ("rels", J.Int row.FS.fs_rels);
                          ("default", measurement_doc row.FS.fs_default);
                          ("naive", measurement_doc row.FS.fs_naive);
                          ("gated", measurement_doc row.FS.fs_gated);
                          ("perfect", measurement_doc row.FS.fs_perfect) ])
                    r.FS.fr_rows) ) ]
       in
       write_json ~what:"feedback report" path doc);
    if pairs_ok && lookups_ok && gated_ok && naive_hurts then 0 else 1
  in
  Cmd.v
    (Cmd.info "feedback"
       ~doc:
         "LEO-style cardinality-feedback sweep over the 113-query workload: \
          two learning passes (default execution, then re-optimization \
          whose materializations pay for true sub-join cardinalities) fill \
          the feedback store; the frozen store is then measured under \
          default, naive feedback, fragility-gated feedback, and \
          perfect-(N). Exits 1 when gated corrections are materially worse \
          than default anywhere, when feedback modes change the DPccp pair \
          count, when store probes exceed the demand-driven bound, or when \
          no query shows the paper's corrections-can-hurt effect.")
    Term.(const run $ fb_scale_arg $ seed_arg $ jobs_arg $ perfect_arg
          $ reopt_learn_arg $ json_arg)

(* ---- serve ---- *)

let serve_jobs_arg =
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains executing queries (0 = one per core).")

let cache_arg =
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N"
         ~doc:"Plan cache capacity (LRU entries).")

let serve_reopt_arg =
  Arg.(value & opt (some float) None & info [ "reopt" ] ~docv:"THRESHOLD"
         ~doc:"Enable mid-query re-optimization at the given Q-error \
               threshold; improved plans are written back to the cache.")

let revalidate_arg =
  Arg.(value & flag & info [ "revalidate" ]
         ~doc:"On stale cache entries, try proving the cached plan still \
               inside the verifier's sound cardinality bounds before \
               invalidating it.")

let mem_budget_arg =
  Arg.(value & opt (some float) None & info [ "mem-budget" ] ~docv:"SLOTS"
         ~doc:"Admission control: reject any plan whose statically \
               certified peak memory (row-slots) exceeds this budget. The \
               certificate is a sound upper bound, so admitted queries \
               provably stay within it.")

let downgrade_arg =
  Arg.(value & flag & info [ "downgrade" ]
         ~doc:"With --mem-budget: run over-budget queries through the \
               re-optimization loop instead of rejecting them.")

let service_of ~scale ~seed ~jobs ~cache ~reopt ~revalidate ~mem_budget
    ~downgrade =
  let jobs = if jobs = 0 then Rdb_util.Pool.default_jobs () else jobs in
  (* The serving session carries a feedback store: executions behind cache
     hits and re-opt write-backs observe true cardinalities as a side
     effect of serving, so replans after invalidation start corrected. *)
  let catalog, session =
    make_session ~feedback:(Rdb_core.Feedback.create ()) ~scale ~seed ()
  in
  let config =
    {
      Rdb_server.Service.default_config with
      jobs;
      cache_capacity = cache;
      reopt;
      revalidate;
      mem_budget;
      downgrade;
    }
  in
  (jobs, catalog, Rdb_server.Service.create ~config session)

let cmd_serve =
  let port_arg =
    Arg.(value & opt int 7878 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port of the line-oriented SQL frontend.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Address to bind.")
  in
  let run scale seed jobs cache reopt revalidate mem_budget downgrade host
      port =
    let jobs, _catalog, service =
      service_of ~scale ~seed ~jobs ~cache ~reopt ~revalidate ~mem_budget
        ~downgrade
    in
    Printf.printf "reoptdb: listening on %s:%d (scale=%g jobs=%d cache=%d)\n%!"
      host port scale jobs cache;
    Rdb_server.Frontend.serve ~host ~port service;
    Rdb_server.Service.shutdown service;
    Printf.printf "reoptdb: server stopped\n%!";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running query service: SQL over a line-oriented \
          socket, a worker-domain pool with per-domain session snapshots, \
          and an LRU plan cache keyed on the CQNF canonical form (hits \
          skip DPccp entirely). With --mem-budget, every plan's static \
          resource certificate gates admission. Commands: \\\\cache, \
          \\\\metrics, \\\\resources, \\\\refresh, \\\\quit, \
          \\\\shutdown.")
    Term.(const run $ scale_arg $ seed_arg $ serve_jobs_arg $ cache_arg
          $ serve_reopt_arg $ revalidate_arg $ mem_budget_arg
          $ downgrade_arg $ host_arg $ port_arg)

(* ---- bench-serve ---- *)

let cmd_bench_serve =
  let module Service = Rdb_server.Service in
  let module Metrics = Rdb_obs.Metrics in
  let module Query_gen = Rdb_verify.Query_gen in
  let module J = Rdb_obs.Json in
  let requests_arg =
    Arg.(value & opt int 500 & info [ "requests" ] ~docv:"N"
           ~doc:"Measured requests (after the warm-up pass).")
  in
  let clients_arg =
    Arg.(value & opt int 0 & info [ "clients" ] ~docv:"C"
           ~doc:"Closed-loop client domains (0 = same as --jobs).")
  in
  let variants_arg =
    Arg.(value & opt float 0.5 & info [ "variants" ] ~docv:"FRACTION"
           ~doc:"Fraction of measured requests sent as alias-renamed \
                 variants of their workload query (cache-equivalent but \
                 syntactically different).")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:"Write the latency/QPS report as JSON to PATH \
                 (the BENCH_serve.json perf-trajectory artifact).")
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let run scale seed jobs cache reopt revalidate requests clients variants
      json_path =
    let jobs, catalog, service =
      service_of ~scale ~seed ~jobs ~cache ~reopt ~revalidate
        ~mem_budget:None ~downgrade:false
    in
    let clients = if clients = 0 then jobs else clients in
    let workload = Array.of_list (Rdb_imdb.Job_queries.all catalog) in
    (* Warm pass: every workload query once, filling the cache. *)
    let wt0 = Unix.gettimeofday () in
    Array.iter
      (fun q ->
        match Service.query_bound service q with
        | Ok _ -> ()
        | Error e ->
          Printf.eprintf "bench-serve: warm %s failed: %s\n%!"
            q.Rdb_query.Query.name e)
      workload;
    let warm_ms = (Unix.gettimeofday () -. wt0) *. 1000.0 in
    let before = Metrics.snapshot () in
    (* Measured pass: [clients] closed-loop client domains, each drawing a
       seeded stream of workload queries — a [variants] fraction of them
       alias-renamed, so equivalent but syntactically different — and
       awaiting each response before sending the next. *)
    let per_client = max 1 (requests / max 1 clients) in
    let mt0 = Unix.gettimeofday () in
    let client c =
      let prng = Rdb_util.Prng.create (seed + (1000 * (c + 1))) in
      let lat = Array.make per_client 0.0 in
      let errors = ref 0 in
      for i = 0 to per_client - 1 do
        let q = workload.(Rdb_util.Prng.int prng (Array.length workload)) in
        let q =
          if Rdb_util.Prng.float prng 1.0 < variants then
            Query_gen.rename_aliases q
          else q
        in
        let t0 = Unix.gettimeofday () in
        (match Service.query_bound service q with
         | Ok _ -> ()
         | Error _ -> incr errors);
        lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.0
      done;
      (lat, !errors)
    in
    let results =
      if clients = 1 then [ client 0 ]
      else
        List.map Domain.join
          (List.init clients (fun c -> Domain.spawn (fun () -> client c)))
    in
    let wall_ms = (Unix.gettimeofday () -. mt0) *. 1000.0 in
    let after = Metrics.snapshot () in
    Service.shutdown service;
    let lats =
      Array.concat (List.map fst results)
    in
    Array.sort compare lats;
    let errors = List.fold_left (fun acc (_, e) -> acc + e) 0 results in
    let measured = Array.length lats in
    let dc key = Metrics.counter after key - Metrics.counter before key in
    let hits = dc "cache.hits" and misses = dc "cache.misses" in
    let hit_rate =
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses)
    in
    let qps = float_of_int measured /. (wall_ms /. 1000.0) in
    let mean =
      if measured = 0 then 0.0
      else Array.fold_left ( +. ) 0.0 lats /. float_of_int measured
    in
    let p50 = percentile lats 0.50
    and p95 = percentile lats 0.95
    and p99 = percentile lats 0.99 in
    Printf.printf
      "bench-serve: scale=%g seed=%d jobs=%d clients=%d cache=%d reopt=%s\n"
      scale seed jobs clients cache
      (match reopt with None -> "off" | Some t -> Printf.sprintf "%g" t);
    Printf.printf "warm: %d queries in %.0fms\n" (Array.length workload)
      warm_ms;
    Printf.printf
      "measured: %d requests | hit rate %.1f%% (%d hits, %d misses) | %d \
       errors\n"
      measured (100.0 *. hit_rate) hits misses errors;
    Printf.printf
      "latency: p50 %.2fms | p95 %.2fms | p99 %.2fms | mean %.2fms | %.0f \
       qps\n"
      p50 p95 p99 mean qps;
    Printf.printf
      "planning skipped on hits: dp_pairs +%d, plans built +%d (misses \
       only)\n"
      (dc "plan.dp_pairs") (dc "plan.built");
    (match json_path with
     | None -> ()
     | Some path ->
       let doc =
         J.Obj
           [ ("report", J.Str "bench-serve");
             ("scale", J.Float scale);
             ("seed", J.Int seed);
             ("jobs", J.Int jobs);
             ("clients", J.Int clients);
             ("cache_capacity", J.Int cache);
             ( "reopt",
               match reopt with None -> J.Null | Some t -> J.Float t );
             ("variants", J.Float variants);
             ( "warm",
               J.Obj
                 [ ("queries", J.Int (Array.length workload));
                   ("ms", J.Float warm_ms) ] );
             ( "measured",
               J.Obj
                 [ ("requests", J.Int measured);
                   ("errors", J.Int errors);
                   ("hits", J.Int hits);
                   ("misses", J.Int misses);
                   ("hit_rate", J.Float hit_rate);
                   ("p50_ms", J.Float p50);
                   ("p95_ms", J.Float p95);
                   ("p99_ms", J.Float p99);
                   ("mean_ms", J.Float mean);
                   ("wall_ms", J.Float wall_ms);
                   ("qps", J.Float qps);
                   ("dp_pairs", J.Int (dc "plan.dp_pairs"));
                   ("plans_built", J.Int (dc "plan.built"));
                   ("evictions", J.Int (dc "cache.evictions"));
                   ("invalidations", J.Int (dc "cache.invalidations"));
                   ("writebacks", J.Int (dc "cache.writebacks")) ] );
             ("totals", Metrics.to_json after) ]
       in
       write_json ~what:"bench-serve report" path doc);
    if hit_rate < 0.9 && requests >= 100 then begin
      Printf.eprintf
        "bench-serve: warmed hit rate %.1f%% below the 90%% bar\n%!"
        (100.0 *. hit_rate);
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Closed-loop benchmark of the query service: warm the plan cache \
          with one pass over the 113-query JOB workload, then drive N \
          mixed requests (repeats and alias-renamed variants) from C \
          client domains and report p50/p95/p99 latency, QPS, cache hit \
          rate, and the dp_pairs delta proving DPccp was skipped on hits. \
          Exits non-zero when the warmed hit rate falls below 90%.")
    Term.(const run $ scale_arg $ seed_arg $ serve_jobs_arg $ cache_arg
          $ serve_reopt_arg $ revalidate_arg $ requests_arg $ clients_arg
          $ variants_arg $ json_arg)

(* ---- racecheck / exnflow ---- *)

(* One source analyzer as a subcommand: analyze the --root trees (default:
   the repository's lib/), print the report, optionally write its JSON.
   Exits 2 when there is nothing to analyze, else 0 clean / 1 errors. *)
let source_cmd name ~doc ~json_doc ~no_registry_doc analyzer render to_json =
  let module Srclint = Rdb_srclint.Srclint in
  let roots_arg =
    Arg.(value & opt_all string [] & info [ "root" ] ~docv:"DIR"
           ~doc:"Directory tree of .ml sources to analyze (repeatable). \
                 Default: the repository's lib/ directory, located by \
                 walking up from the current directory.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:json_doc)
  in
  let no_registry_arg =
    Arg.(value & flag & info [ "no-registry" ] ~doc:no_registry_doc)
  in
  let run roots json_path no_registry =
    let roots =
      if roots <> [] then roots
      else Option.to_list (Srclint.find_default_root ())
    in
    let files = List.concat_map Srclint.ml_files_under roots in
    if roots = [] then begin
      Printf.eprintf "%s: cannot locate the repository's lib/ (pass --root)\n"
        name;
      2
    end
    else if files = [] then begin
      Printf.eprintf "%s: no .ml files under %s\n" name
        (String.concat ", " roots);
      2
    end
    else begin
      let report = Srclint.analyze_files (analyzer no_registry) files in
      print_string (render report);
      Option.iter
        (fun path -> write_json ~what:(name ^ " report") path (to_json report))
        json_path;
      Srclint.exit_code report
    end
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ roots_arg $ json_arg $ no_registry_arg)

let cmd_racecheck =
  let module Srclint = Rdb_srclint.Srclint in
  source_cmd "racecheck"
    ~doc:
      "Source-level concurrency-safety lint of the repository's own .ml \
       tree: checks every @guarded_by/@confined-annotated shared state \
       for accesses outside its lock, closures passed to other domains \
       that capture guarded state, blocking calls under a lock, \
       lock-acquisition-order cycles across modules, and the checked \
       registry of the serving stack's shared state. The static \
       complement of the TSan CI job. Exits 1 on error findings, 2 on \
       usage errors."
    ~json_doc:
      "Write the full report (locks, lock-order edges, findings) as JSON to \
       PATH."
    ~no_registry_doc:
      "Skip the checked registry of the serving stack's known shared state \
       (for analyzing trees other than this repository's lib/)."
    (fun no_registry ->
      Srclint.racecheck ?registry:(if no_registry then Some [] else None))
    Srclint.render_race Srclint.race_to_json

let cmd_exnflow =
  let module Srclint = Rdb_srclint.Srclint in
  source_cmd "exnflow"
    ~doc:
      "Source-level exception-flow lint of the repository's own .ml tree: \
       proves resources acquired in a scope (fds, channels, held mutexes, \
       pools, temp tables) are released on every raising path, that no \
       exception can escape a Domain.spawn/Thread.create/Pool.submit \
       closure, and that control exceptions (Work_budget_exceeded & co) \
       are only caught at registry-pinned handler sites. The error-path \
       complement of racecheck. Exits 1 on error findings, 2 on usage \
       errors."
    ~json_doc:
      "Write the full report (summaries count, findings) as JSON to PATH."
    ~no_registry_doc:
      "Skip the designated-handler registry and the pinned serving-stack \
       file list (for analyzing trees other than this repository's lib/)."
    (fun no_registry ->
      if no_registry then Srclint.exnflow ~handlers:[] ~pinned:[]
      else Srclint.exnflow ?handlers:None ?pinned:None)
    Srclint.render_exnflow Srclint.exnflow_to_json

(* ---- json-check ---- *)

let cmd_json_check =
  let path_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"
           ~doc:"JSON report to validate.")
  in
  let run path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Printf.eprintf "json-check: %s\n" e; 2
    | text ->
      (match Rdb_obs.Json.parse_opt text with
       | Some (Rdb_obs.Json.Obj fields) ->
         Printf.printf "json-check: %s: valid object, %d top-level keys, %d \
                        bytes\n"
           path (List.length fields) (String.length text);
         0
       | Some _ ->
         Printf.eprintf
           "json-check: %s: valid JSON but not an object (reports are \
            objects)\n"
           path;
         1
       | None ->
         Printf.eprintf "json-check: %s: not valid JSON\n" path;
         1)
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:
         "Validate a JSON report (metrics dump, fragility report) with the \
          engine's strict dependency-free parser. Exits non-zero unless the \
          file is one syntactically valid JSON object.")
    Term.(const run $ path_pos)

let () =
  let info =
    Cmd.info "reoptdb"
      ~doc:
        "A from-scratch reproduction of 'How I Learned to Stop Worrying and \
         Love Re-optimization' (ICDE 2019): query engine, instrumented \
         optimizer, and mid-query re-optimization."
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [ cmd_queries; cmd_sql; cmd_explain; cmd_run; cmd_experiment;
           cmd_lint; cmd_resources; cmd_verify; cmd_fragility; cmd_feedback;
           cmd_serve; cmd_bench_serve; cmd_racecheck; cmd_exnflow;
           cmd_json_check ])
  in
  (* cmdliner reports its own parse errors as 124; fold them into the
     uniform contract (2 = usage error) shared by every subcommand. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
